"""Zero-bias tied-weight convolutional auto-encoder.

The model owns a single encoder filter bank; decoder filters are always
derived from it, so no stale decoder state can exist.  Encoding is
ReLU(conv(x, W_e) + b), decoding is ReLU(conv(z, tied(W_e)) + b_d);
reconstruction loss is half the summed squared error over a batch.
Training, the loss and its gradients take their samples as one
(B, C, H, W) array; encoding and feature extraction take a map or a batch.
Every convolution is the same-size one of :mod:`zbcae.ops` (stride 1, pad
(kernel - 1) / 2, odd kernel), so the reconstruction lands on the input
grid.  The loss is the training step's own loss, from one batched forward
pass that computes the tied decoder as the transposed convolution with
W_e, which equals conv(z, tied(W_e)) at that geometry.

A training step runs in one step workspace (:class:`_Workspace`) that
:func:`train` makes once and reuses for every step, whatever the batch
size, and calls the unchecked kernels of :mod:`zbcae.ops` on views of it
built once per chunk size; the public ops check their arguments, call the
same kernels and return fresh arrays.  A warm step allocates nothing the
size of an input map but the small step's bincount result.  A batch of one
chunk in :func:`train` moves W_e inside its step, one block of filter rows
at a time, with no weight-gradient bank (:func:`_fused_update`); a batch of
several chunks, :func:`loss_gradients` and :func:`reconstruction_loss` sum
the chunks' gradient in a bank (:func:`_chunk_forward_backward`).  Three
byte budgets size it all: the training chunk, the filter block and one
scratch budget for the temporaries formed next to it (an extraction chunk,
a col2im index, an SGD row block).

Two bias regimes are supported.  ``train-then-zero`` (default) lets the
biases learn during reconstruction training and pins them to zero only for
feature extraction; ``always-zero`` treats them as the constant zero in
every forward pass and returns zero bias gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CollapseError, NonFiniteLossError, ShapeError, check_finite
from .ops import (
    _col2im,
    _conv2d,
    _conv2d_weight_grad,
    _fold,
    _im2col,
    _im2col_views,
    conv2d,
    conv2d_bias_grad,
    maxpool2,
)

BIAS_TRAIN_THEN_ZERO = "train-then-zero"
BIAS_ALWAYS_ZERO = "always-zero"
BIAS_MODES = (BIAS_TRAIN_THEN_ZERO, BIAS_ALWAYS_ZERO)


@dataclass
class CaeModel:
    """Encoder filter bank plus per-map biases.

    w_e: (K, C, kh, kh) encoder filters, square kernels of odd extent only.
    b_e: (K,) encoder biases.  b_d: (C,) decoder biases.
    """

    w_e: np.ndarray
    b_e: np.ndarray
    b_d: np.ndarray

    def __post_init__(self):
        self.w_e = np.ascontiguousarray(self.w_e, dtype=np.float64)
        self.b_e = np.ascontiguousarray(self.b_e, dtype=np.float64)
        self.b_d = np.ascontiguousarray(self.b_d, dtype=np.float64)
        if self.w_e.ndim != 4:
            raise ShapeError(f"encoder weights must be K x C x kh x kw, got shape {self.w_e.shape}")
        k, c, kh, kw = self.w_e.shape
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"kernels must be square with an odd extent, got {kh} x {kw}")
        if self.b_e.shape != (k,):
            raise ShapeError(f"encoder bias has length {self.b_e.size}, expected {k}")
        if self.b_d.shape != (c,):
            raise ShapeError(f"decoder bias has length {self.b_d.size}, expected {c}")
        for name, a in (("weights", self.w_e), ("encoder bias", self.b_e), ("decoder bias", self.b_d)):
            if not np.isfinite(a).all():
                raise ValueError(f"model {name} contain non-finite values")

    @property
    def n_filters(self) -> int:
        return self.w_e.shape[0]

    @property
    def n_channels(self) -> int:
        return self.w_e.shape[1]

    @property
    def kernel(self) -> int:
        return self.w_e.shape[2]


@dataclass
class CaeTrainConfig:
    """SGD schedule.  Defaults are the reference operating point: 100
    epochs, batch 512, learning rate 1e-5, tenfold decay on plateau."""

    epochs: int = 100
    batch_size: int = 512
    learning_rate: float = 1e-5
    anneal_factor: float = 0.1
    plateau_patience: int = 5
    plateau_rel_tol: float = 1e-3
    max_anneals: int = 3
    bias_mode: str = BIAS_TRAIN_THEN_ZERO
    seed: int = 0

    def __post_init__(self):
        check_finite(self)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.anneal_factor < 1.0:
            raise ValueError(f"anneal_factor must be in (0, 1), got {self.anneal_factor}")
        if self.plateau_patience < 1:
            raise ValueError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        if self.plateau_rel_tol <= 0:
            raise ValueError(f"plateau_rel_tol must be > 0, got {self.plateau_rel_tol}")
        if self.max_anneals < 0:
            raise ValueError(f"max_anneals must be >= 0, got {self.max_anneals}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_bias_mode(self.bias_mode)


@dataclass
class CaeGradients:
    """Loss gradients w.r.t. the model parameters."""

    dw_e: np.ndarray
    db_e: np.ndarray
    db_d: np.ndarray


@dataclass
class LossHistory:
    """Per-epoch training record: mean loss, learning rate in effect, and
    (epoch, new_lr) anneal events."""

    mean_loss: list = field(default_factory=list)
    learning_rate: list = field(default_factory=list)
    anneal_events: list = field(default_factory=list)


def init_model(n_filters: int, n_channels: int, kernel: int, seed: int) -> CaeModel:
    """Build a fresh model with fan-balanced uniform filters and zero biases.

    Filters are drawn from U[-s, s] with s = sqrt(6 / (fan_in + fan_out)),
    fan_in = C*kh*kh and fan_out = K*kh*kh.
    """
    if n_filters < 1 or n_channels < 1 or kernel < 1:
        raise ShapeError(
            f"filters, channels and kernel must be >= 1, got {n_filters}, {n_channels}, {kernel}"
        )
    fan_in = n_channels * kernel * kernel
    fan_out = n_filters * kernel * kernel
    s = np.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.default_rng(seed)
    w_e = rng.uniform(-s, s, size=(n_filters, n_channels, kernel, kernel))
    return CaeModel(w_e=w_e, b_e=np.zeros(n_filters), b_d=np.zeros(n_channels))


def encode(model: CaeModel, x: np.ndarray, zero_bias: bool = False) -> np.ndarray:
    """ReLU(conv(x, W_e) + b_e) of a (C, H, W) map or a (B, C, H, W) batch,
    or with b_e pinned to zero when zero_bias.  A map is checked as a batch
    of one (:func:`_as_batch`)."""
    if np.ndim(x) == 3:
        x = _as_batch(model, np.asarray(x)[None])[0]
    b = np.zeros(model.n_filters) if zero_bias else model.b_e
    z = conv2d(x, model.w_e, b)
    return np.maximum(z, 0.0, out=z)


def _as_batch(model: CaeModel, batch) -> np.ndarray:
    """``batch`` as a (B, C, H, W) float64 array; ShapeError unless it
    stacks into one array with four axes, at least one sample, the model's
    channel count and maps of a nonzero extent."""
    try:
        x = np.asarray(batch, dtype=np.float64)
    except ValueError as e:  # a ragged list of maps
        raise ShapeError(f"a batch must be B x C x H x W, but its maps do not stack into one array: {e}") from e
    if x.shape[:1] == (0,):
        raise ShapeError("a batch must contain at least one sample; this one is empty")
    if x.ndim != 4:
        raise ShapeError(f"a batch must be B x C x H x W, got shape {x.shape}")
    if x.shape[1] != model.n_channels:
        raise ShapeError(f"samples have {x.shape[1]} channels but the model expects {model.n_channels}")
    if 0 in x.shape[2:]:
        raise ShapeError(f"samples must be maps of a nonzero extent, got {x.shape[2]} x {x.shape[3]}")
    return x


def chunk_size(model: CaeModel, sample_shape: tuple, budget_bytes: int) -> int:
    """Samples per chunk such that the largest per-chunk matrix, a code map
    (K x n*H*W) or a column matrix (C*kh*kw x n*H*W), stays within
    ``budget_bytes`` (at least one sample)."""
    k, c, kh, kw = model.w_e.shape
    _, h, w = sample_shape
    return max(1, budget_bytes // (8 * h * w * max(k, c * kh * kw)))


# Working-set budget of one training chunk.  At the paper geometry (K=4096,
# 14x14 maps) a chunk is ten samples: a batch of 8 runs as one GEMM per layer.
# A step holds one chunk's workspace beside the bank; a batch of several
# chunks adds one gradient bank, so batch 512 needs no more than batch 11.
TRAIN_CHUNK_BYTES = 64 * 2**20


# Budget of one block of filter rows in the weight-gradient products, which
# never form a bank-sized temporary.  At the paper geometry a block is 224 of
# the 4096 filters (4.1 MB of a 75.5 MB bank); smaller blocks cost more time
# than they save memory there (a step's encoder-side term: 317 ms at 16 MiB,
# 340 ms at 4 MiB, 375 ms at 2 MiB, 438 ms at 1 MiB).
_FILTER_BLOCK_BYTES = 4 * 2**20


# Budget of any temporary formed next to a held working set, whose peak it
# adds to: an extraction chunk (larger ones raise desk's peak RSS for no
# measurable speed; at K=4096 over 14x14 maps a chunk is one sample); a
# chunk's col2im index, whose fit makes the step small (``_Workspace.small``;
# desk: 124 KB for 4 samples, paper: 29 MB for 8); a row block of the SGD
# update's ``lr * dW``, elementwise, so of the same bits at any block size.
_SCRATCH_BYTES = 2**18


def _block_rows(bank: np.ndarray, budget_bytes: int) -> int:
    """Filter rows per block of a (K, ...) array: as many as fit
    ``budget_bytes``, rounded down to a multiple of 8 (at least 8), so a
    bank of a multiple of 8 filters never ends in a one-row block, which
    numpy would run as a GEMV instead of a GEMM."""
    return max(8, budget_bytes // (bank.nbytes // len(bank)) // 8 * 8)


def _filter_blocks(bank: np.ndarray, budget_bytes: int):
    """Consecutive slices of the filter rows of a (K, ...) array, each
    :func:`_block_rows` long except perhaps the last."""
    rows = _block_rows(bank, budget_bytes)
    return (slice(start, start + rows) for start in range(0, len(bank), rows))


class _ChunkViews:
    """The buffers of a :class:`_Workspace` viewed for a chunk of ``b``
    samples, N = b * H * W: the padded buffer's interior and patch view
    (:func:`zbcae.ops._im2col_views`), the code as a (K, N) matrix and as
    (B, K, H, W) maps, the column and cols(x) buffers as (C*kh*kw, N) and
    6-D patch matrices, the column buffer's head as the (B, C, H, W)
    residual (C*kh*kw >= C), and the mask buffer as (K, ceil(N / 8)) bits."""

    def __init__(self, ws: "_Workspace", b: int):
        k, rows, (c, h, w), (kh, kw) = ws.k, ws.rows, ws.sample_shape, ws.kernel
        n = b * h * w
        self.shape = (b, c, h, w)
        xp = ws.padded[: b * c * (h + kh - 1) * (w + kw - 1)].reshape(b, c, h + kh - 1, w + kw - 1)
        self.interior, self.patches = _im2col_views(xp, kh, kw)
        self.code = ws.code[: k * n].reshape(k, n)
        self.code_maps = self.code.reshape(k, b, h, w).swapaxes(0, 1)
        self.cols, self.cols_x = (m[: rows * n].reshape(rows, n) for m in (ws.cols, ws.cols_x))
        self.cols6, self.cols_x6 = (m.reshape(self.patches.shape) for m in (self.cols, self.cols_x))
        self.residual = ws.cols[: b * c * h * w].reshape(self.shape)
        self.mask = ws.mask[: k * -(-n // 8)].reshape(k, -1)


class _Workspace:
    """Scratch memory of the training step, made once per :func:`train`,
    :func:`loss_gradients` or :func:`reconstruction_loss` call and sized
    for the largest chunk of a batch of ``samples`` maps, N = chunk * H * W:
    a zero-padded input buffer, whose border nothing writes; a code buffer
    (K x N); a column buffer (C*kh*kw x N), whose head holds the residual
    between the decoder's fold and cols(dG); a cols(x) buffer, a second
    column buffer when ``small``, else the column buffer, refilled; a mask
    buffer of K x ceil(N / 8) bytes for the code's packed ReLU mask;
    ``blocks``, (rows, dec, enc) per block of filter rows, views of a
    filter-block buffer (:data:`_FILTER_BLOCK_BYTES`) and of a second one
    when ``small``; ``dw``, the gradient bank, made only by a step that sums
    one; the zero biases of always-zero mode; and ``active``, the positive
    code and reconstruction units counted since :func:`train` reset it.

    ``small``, the step's one switch, is whether the largest chunk's column
    matrix, and so its col2im index, fits :data:`_SCRATCH_BYTES`.  A small
    step holds cols(x) and folds the decoder's column matrix in one
    bincount (:func:`zbcae.ops._col2im`); any other refills cols(x) and
    folds into the padded buffer's interior (:func:`zbcae.ops._fold`).
    Each chunk size's views are built once, so the buffers' pages are
    touched on the first step and reused by every later one.
    """

    def __init__(self, model: CaeModel, sample_shape: tuple, samples: int):
        k, c, kh, kw = model.w_e.shape
        _, h, w = sample_shape
        self.k, self.rows, self.sample_shape, self.kernel = k, c * kh * kw, (c, h, w), (kh, kw)
        self.chunk = chunk_size(model, sample_shape, TRAIN_CHUNK_BYTES)
        most = min(samples, self.chunk)
        n = most * h * w
        self.padded = np.zeros(most * c * (h + kh - 1) * (w + kw - 1))
        self.code = np.empty(k * n)
        self.cols = np.empty(self.rows * n)
        self.mask = np.empty(k * -(-n // 8), dtype=np.uint8)
        self.small = 8 * self.rows * n <= _SCRATCH_BYTES
        self.cols_x = np.empty(self.rows * n) if self.small else self.cols
        dec = np.empty(min(k, _block_rows(model.w_e, _FILTER_BLOCK_BYTES)) * self.rows)
        buffers = (dec, np.empty_like(dec) if self.small else dec)
        self.blocks = [(rows, *(b[: len(model.w_e[rows]) * self.rows].reshape(-1, self.rows) for b in buffers))
                       for rows in _filter_blocks(model.w_e, _FILTER_BLOCK_BYTES)]
        self.zero_biases = (np.zeros(k), np.zeros(c))
        self.active = [0, 0]
        self._views = {}

    @cached_property
    def dw(self) -> np.ndarray:
        """The weight-gradient bank, (K, C*kh*kw)."""
        return np.empty((self.k, self.rows))

    def views(self, b: int) -> _ChunkViews:
        """The buffers viewed for a chunk of ``b`` samples."""
        views = self._views.get(b)
        if views is None:
            views = self._views[b] = _ChunkViews(self, b)
        return views


def _check_bias_mode(bias_mode: str):
    if bias_mode not in BIAS_MODES:
        raise ValueError(f"bias_mode must be one of {BIAS_MODES}, got {bias_mode!r}")


def _forward(model: CaeModel, x: np.ndarray, b_e: np.ndarray, b_d: np.ndarray, ws: _Workspace):
    """The batched forward pass over a (B, C, H, W) chunk in ``ws``:
    (views, g), the chunk's :class:`_ChunkViews`, whose code buffer holds
    the code z, and the decoder pre-activation g.  The decoder's column
    matrix W^T z goes into the column buffer and is folded into g: in one
    bincount when ``ws.small``, else into the padded buffer's interior.
    That transposed convolution equals conv(z, tied(W)) for the same-size
    convolution, so no tied copy of the bank is formed."""
    v = ws.views(len(x))
    w = model.w_e.reshape(ws.k, ws.rows)
    _im2col(x, v.interior, v.patches, v.cols_x6)
    _conv2d(w, v.cols_x, b_e, v.code)
    np.maximum(v.code, 0.0, out=v.code)
    np.matmul(w.T, v.code, out=v.cols)
    g = _col2im(v.cols, v.shape, *ws.kernel) if ws.small else _fold(v.cols6, v.interior)
    g += b_d[:, None, None]
    return v, g


def _chunk_loss(model: CaeModel, x: np.ndarray, b_e: np.ndarray, b_d: np.ndarray, ws: _Workspace):
    """The forward pass (:func:`_forward`) and loss of a chunk: (views,
    loss, db_d), with z in the code buffer and cols(dG) in the column
    buffer.  The residual r = relu(g) - x goes into the column buffer's
    head, dead once g is folded; dG = r (g > 0) overwrites g, and r is
    squared in place for the loss."""
    v, g = _forward(model, x, b_e, b_d, ws)
    r = np.maximum(g, 0.0, out=v.residual)
    r -= x
    live = g > 0.0
    ws.active[1] += np.count_nonzero(live)
    dg = np.multiply(r, live, out=g)
    r *= r
    loss = 0.5 * float(np.add.reduce(r, axis=None))
    db_d = conv2d_bias_grad(dg)
    _im2col(dg, v.interior, v.patches, v.cols6)
    return v, loss, db_d


def _chunk_forward_backward(model: CaeModel, x: np.ndarray, b_e: np.ndarray, b_d: np.ndarray,
                            first: bool, ws: _Workspace):
    """:func:`_chunk_loss` and a backward pass that writes (``first``) or
    adds the chunk's weight terms into the bank a block of filter rows at a
    time: the decoder's dG-cols z^T, then the encoder's da cols(x)^T.  The
    input gradient conv(dG, W) overwrites z once z's ReLU mask is packed
    into bits; times the unpacked 0/1 mask (so a -0.0 stays -0.0, as with a
    bool mask) it is da.  Returns (loss, db_e, db_d)."""
    v, loss, db_d = _chunk_loss(model, x, b_e, b_d, ws)
    for rows, _, block in ws.blocks:
        if first:
            _conv2d_weight_grad(v.code[rows], v.cols, ws.dw[rows])
        else:
            ws.dw[rows] += _conv2d_weight_grad(v.code[rows], v.cols, block)
        v.mask[rows] = np.packbits(v.code[rows] > 0.0, axis=1)  # z > 0 exactly where its pre-activation is
    ws.active[0] += np.bitwise_count(v.mask).sum()
    # One whole-bank GEMM: blocks of W's rows change its bits at N = 4 (mod 8).
    # Its zero bias turns -0.0 into 0.0, as conv2d with a zero bias does.
    _conv2d(model.w_e.reshape(ws.k, ws.rows), v.cols, ws.zero_biases[0], v.code)
    if not ws.small:
        _im2col(x, v.interior, v.patches, v.cols_x6)
    for rows, _, block in ws.blocks:
        v.code[rows] *= np.unpackbits(v.mask[rows], axis=1, count=v.code.shape[1])
        ws.dw[rows] += _conv2d_weight_grad(v.code[rows], v.cols_x, block)
    return loss, conv2d_bias_grad(v.code_maps), db_d


def _fused_update(model: CaeModel, x: np.ndarray, v: _ChunkViews, ws: _Workspace, lr: float) -> np.ndarray:
    """Move W_e by -lr dW for the chunk ``x`` whose :func:`_chunk_loss` is
    in ``v``, one block of filter rows at a time, with no gradient bank
    (LOMO's fused update, Lv et al., arXiv:2306.09782); returns db_e.

    A block's terms need only its rows of W: its decoder term, then its da
    from the old rows over the code it overwrites, times its bool ReLU mask.
    A small step holds cols(x), so a block moves once, by lr (dec + enc):
    the bits of :func:`sgd_step` where the bank is one block (desk).  Any
    other moves each block by lr dec, refills cols(x), then by lr enc.
    """
    w = model.w_e.reshape(ws.k, ws.rows)
    for rows, dec, enc in ws.blocks:
        _conv2d_weight_grad(v.code[rows], v.cols, dec)
        mask = v.code[rows] > 0.0
        ws.active[0] += np.count_nonzero(mask)
        _conv2d(w[rows], v.cols, ws.zero_biases[0][rows], v.code[rows])
        v.code[rows] *= mask
        if ws.small:
            dec += _conv2d_weight_grad(v.code[rows], v.cols_x, enc)
        dec *= lr
        w[rows] -= dec
    if not ws.small:
        _im2col(x, v.interior, v.patches, v.cols_x6)
        for rows, _, enc in ws.blocks:
            w[rows] -= np.multiply(_conv2d_weight_grad(v.code[rows], v.cols_x, enc), lr, out=enc)
    return conv2d_bias_grad(v.code_maps)


def _forward_backward(model: CaeModel, x: np.ndarray, bias_mode: str,
                      ws: _Workspace) -> tuple[float, CaeGradients]:
    """(loss, gradients) of a (B, C, H, W) batch, in workspace ``ws``,
    summed over its chunks into the workspace's weight-gradient bank.
    ``bias_mode`` is one of :data:`BIAS_MODES`; callers check it."""
    train_biases = bias_mode == BIAS_TRAIN_THEN_ZERO
    b_e, b_d = (model.b_e, model.b_d) if train_biases else ws.zero_biases
    total = None
    for start in range(0, len(x), ws.chunk):
        part = _chunk_forward_backward(model, x[start : start + ws.chunk], b_e, b_d, total is None, ws)
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    loss, db_e, db_d = total
    if not train_biases:
        db_e, db_d = ws.zero_biases
    return loss, CaeGradients(ws.dw.reshape(model.w_e.shape), db_e, db_d)


def _batch_step(model: CaeModel, batch, bias_mode: str) -> tuple[float, CaeGradients]:
    """(loss, gradients) of one checked batch, in a workspace of its own."""
    x = _as_batch(model, batch)
    _check_bias_mode(bias_mode)
    return _forward_backward(model, x, bias_mode, _Workspace(model, x.shape[1:], len(x)))


def reconstruction_loss(model: CaeModel, batch, bias_mode: str = BIAS_TRAIN_THEN_ZERO) -> float:
    """Half the summed squared reconstruction error over the batch: the
    training step's own loss.  In always-zero mode both biases are pinned
    to zero, as in the gradients of that mode.
    """
    return _batch_step(model, batch, bias_mode)[0]


def loss_gradients(model: CaeModel, batch, bias_mode: str = BIAS_TRAIN_THEN_ZERO) -> CaeGradients:
    """Exact gradient of the reconstruction loss.

    The W_e gradient sums the encoder-path and decoder-path contributions,
    since the tied decoder shares W_e.  ReLU backprop uses subgradient 0 at
    exactly 0.  In always-zero mode the bias gradients are zero and the
    forward pass treats both biases as the constant 0.
    """
    return _batch_step(model, batch, bias_mode)[1]


def sgd_step(model: CaeModel, grads: CaeGradients, lr: float) -> CaeModel:
    """Plain in-place stochastic gradient step, no momentum or decay.

    The bank moves one block of filter rows (:data:`_SCRATCH_BYTES`) at a
    time: the same bits as ``w_e -= lr * dw_e`` without a bank-sized
    ``lr * dw_e``.  ``grads`` is left as it was.  Every gradient must have
    its parameter's shape (ShapeError before any parameter moves).
    """
    for name, grad, param in (("weight", grads.dw_e, model.w_e), ("encoder bias", grads.db_e, model.b_e),
                              ("decoder bias", grads.db_d, model.b_d)):
        if np.shape(grad) != param.shape:
            raise ShapeError(f"{name} gradient shape {np.shape(grad)} != {param.shape}")
    for rows in _filter_blocks(model.w_e, _SCRATCH_BYTES):
        model.w_e[rows] -= lr * grads.dw_e[rows]
    model.b_e -= lr * grads.db_e
    model.b_d -= lr * grads.db_d
    return model


def _train_step(model: CaeModel, x: np.ndarray, bias_mode: str, lr: float, ws: _Workspace, where: str) -> float:
    """One SGD step at ``lr`` on a (B, C, H, W) batch in ``ws``; returns its
    loss.  A batch of one chunk moves W_e in the step (:func:`_fused_update`),
    one of several sums its gradient in the bank for :func:`sgd_step`.  A
    non-finite loss raises NonFiniteLossError naming ``where`` first."""
    train_biases = bias_mode == BIAS_TRAIN_THEN_ZERO
    if len(x) > ws.chunk:
        loss, grads = _forward_backward(model, x, bias_mode, ws)
    else:
        v, loss, db_d = _chunk_loss(model, x, *((model.b_e, model.b_d) if train_biases else ws.zero_biases), ws)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"non-finite reconstruction loss at {where}; reduce the learning rate")
    if len(x) > ws.chunk:
        sgd_step(model, grads, lr)
    elif train_biases:
        model.b_e -= lr * _fused_update(model, x, v, ws, lr)
        model.b_d -= lr * db_d
    else:
        _fused_update(model, x, v, ws, lr)
    return loss


def train(model: CaeModel, dataset, config: CaeTrainConfig, progress=None):
    """Run SGD with per-epoch shuffling and plateau-triggered annealing.

    The dataset is a (N, C, H, W) array; labels never enter this function.
    Each epoch the data is reshuffled with the seeded generator and split
    into batches (the trailing short batch is kept).  The recorded epoch
    metric is the mean per-sample loss.  An epoch counts toward a
    plateau unless it improves on the best mean loss seen so far by at
    least ``plateau_rel_tol`` (relative); after ``plateau_patience``
    consecutive plateau epochs the learning rate is multiplied by
    ``anneal_factor``, at most ``max_anneals`` times.

    ``progress``, if given, is called as progress(epoch, mean_loss, lr)
    after every epoch.  An epoch that left the code or the reconstruction
    zero on every sample then raises CollapseError.  Returns (model,
    LossHistory).
    """
    data = _as_batch(model, dataset)
    n = len(data)
    history = LossHistory()
    if config.epochs == 0:
        return model, history

    _check_bias_mode(config.bias_mode)
    ws = _Workspace(model, data.shape[1:], min(config.batch_size, n))
    held = np.empty((min(config.batch_size, n), *data.shape[1:]))
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    plateau_run = 0
    anneals = 0
    best = None
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        ws.active = [0, 0]
        for b, start in enumerate(range(0, n, config.batch_size)):
            rows = order[start : start + config.batch_size]
            batch = np.take(data, rows, axis=0, out=held[: len(rows)], mode="clip")  # "raise" buffers a copy
            total += _train_step(model, batch, config.bias_mode, lr, ws, f"epoch {epoch}, batch {b}")
        mean = total / n
        history.mean_loss.append(mean)
        history.learning_rate.append(lr)

        if best is None:
            best = mean
        else:
            improvement = (best - mean) / best if best > 0 else 0.0
            if improvement < config.plateau_rel_tol:
                plateau_run += 1
                if plateau_run >= config.plateau_patience and anneals < config.max_anneals:
                    lr *= config.anneal_factor
                    anneals += 1
                    plateau_run = 0
                    history.anneal_events.append((epoch, lr))
            else:
                best = mean
                plateau_run = 0
        if progress is not None:
            progress(epoch, mean, lr)
        if not all(ws.active):
            dead = "code" if not ws.active[0] else "reconstruction"
            raise CollapseError(f"no {dead} unit was active in epoch {epoch} at learning rate "
                                f"{history.learning_rate[-1]}; reduce the learning rate")
    return model, history


def extract_features(model: CaeModel, x: np.ndarray) -> np.ndarray:
    """Feed-forward feature vector: zero-bias encode, 2x2 max-pool, flatten.

    Bias values never influence the output, so the result has length
    D = K * ceil(H/2) * ceil(W/2) and is elementwise non-negative.  A
    (B, C, H, W) batch gives a (B, D) matrix, encoded in chunks of
    :data:`_SCRATCH_BYTES` of working set; a (C, H, W) map is checked as
    a batch of one.
    """
    if x.ndim != 4:
        return maxpool2(encode(model, x, zero_bias=True)).ravel()
    x = _as_batch(model, x)
    step = chunk_size(model, x.shape[1:], _SCRATCH_BYTES)
    pooled = (maxpool2(encode(model, x[start : start + step], zero_bias=True)) for start in range(0, len(x), step))
    return np.concatenate([p.reshape(len(p), -1) for p in pooled])
