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

A training step runs in one step workspace that :func:`train` makes once
and reuses for every step, whatever the batch size: a zero-padded input
buffer, a code buffer, a column buffer, a cols(x) buffer, one
weight-gradient buffer and one filter-block buffer, with their views built
once per chunk size.  The step calls the unchecked kernels of
:mod:`zbcae.ops` on those views; the public ops check their arguments, call
the same kernels and return fresh arrays.  One switch picks the step's
path: where a chunk's column matrix, and so its col2im index, is small
(desk scale), cols(x) stays in a second column buffer through the step and
the decoder's column matrix is folded into the decoder pre-activation g by
one bincount over the chunk; elsewhere the one column buffer takes cols(x),
the decoder's column matrix, cols(dG) and cols(x) again in turn, the last
refilled from the padded buffer, and g is folded by shifted slice adds
straight into the padded buffer's interior.  The padded buffer's border
is zero from its allocation on, since nothing writes it.  The decoder's
input gradient overwrites the code once its ReLU mask is taken.  Each
chunk adds its decoder-side and encoder-side weight terms into the
gradient buffer a block of filter rows at a time.  Three byte budgets size
it all: the training chunk, the filter block and one scratch budget for the
temporaries formed next to it (an extraction chunk, a col2im index, an SGD
row block).

Two bias regimes are supported.  ``train-then-zero`` (default) lets the
biases learn during reconstruction training and pins them to zero only for
feature extraction; ``always-zero`` treats them as the constant zero in
every forward pass and returns zero bias gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteLossError, ShapeError
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
    relu,
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
# A step holds one chunk's workspace plus the bank and one gradient buffer,
# so batch 512 needs no more memory than batch 10.
TRAIN_CHUNK_BYTES = 64 * 2**20


# Budget of one block of filter rows in the weight-gradient products, which
# never form a bank-sized temporary.  At the paper geometry a block is 224 of
# the 4096 filters (4.1 MB of a 75.5 MB bank); smaller blocks cost more time
# than they save memory there (a step's encoder-side term: 317 ms at 16 MiB,
# 340 ms at 4 MiB, 375 ms at 2 MiB, 438 ms at 1 MiB).
_FILTER_BLOCK_BYTES = 4 * 2**20


# Budget of any temporary formed next to a held working set, kept small
# because it adds to that set's peak:
# - one extraction chunk (desk, 12x6x6 and K=16: larger chunks raise the
#   run's peak RSS for no measurable speed; at K=4096 over 14x14 maps a
#   chunk is one sample);
# - a chunk's col2im index, the size of its column matrix: where it fits
#   (desk: 124 KB for 4 samples), the step is small (``_Workspace.small``),
#   folds the whole chunk in one bincount and holds cols(x) in a second
#   column buffer; elsewhere (paper: 29 MB for 8 samples) it folds into its
#   padded buffer with no index and refills cols(x);
# - one block of filter rows of the SGD update's ``lr * dW``; an
#   elementwise update has the same bits at any block size.
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
    samples, N = b * H * W: the interior and the patch view
    (:func:`zbcae.ops._im2col_views`) of the padded buffer at the chunk's
    (B, C, H + kh - 1, W + kw - 1) shape, the code buffer as a (K, N) matrix
    and as the (B, K, H, W) map of its columns, the column buffer and the
    cols(x) buffer as (C*kh*kw, N) matrices and at the patch view's 6-D
    shape, and the chunk's (B, C, H, W) shape."""

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


class _Workspace:
    """Scratch memory of the training step, made once per :func:`train`,
    :func:`loss_gradients` or :func:`reconstruction_loss` call and sized
    for the largest chunk of a batch of ``samples`` maps of
    ``sample_shape``, N = chunk * H * W:

    - a zero-padded input buffer, chunk x C x (H + kh - 1) x (W + kw - 1),
      whose interior im2col and the decoder's fold write and whose border
      nothing writes, so it stays zero;
    - a code buffer (K x N) and a column buffer (C*kh*kw x N);
    - a cols(x) buffer that holds im2col(x) through the chunk's step: a
      second column buffer when ``small``, else the column buffer itself,
      which the step then refills from the padded buffer;
    - the weight-gradient buffer, a filter-block buffer
      (:data:`_FILTER_BLOCK_BYTES` of filter rows) and the (rows, block)
      pairs the gradient is filled by;
    - the zero bias vectors of always-zero mode.

    ``small``, the step's one switch, is whether the largest chunk's column
    matrix, and so its col2im index, fits :data:`_SCRATCH_BYTES`.  A small
    step holds cols(x) and folds the decoder's column matrix in one
    bincount (:func:`zbcae.ops._col2im`); any other refills cols(x) and
    folds into the padded buffer's interior (:func:`zbcae.ops._fold`).
    :meth:`views` builds each chunk size's views once, so the buffers'
    pages are touched on the first step and reused by every later one.
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
        self.small = 8 * self.rows * n <= _SCRATCH_BYTES
        self.cols_x = np.empty(self.rows * n) if self.small else self.cols
        self.dw = np.empty_like(model.w_e)
        self.dw_rows = self.dw.reshape(k, self.rows)
        block = np.empty(min(k, _block_rows(model.w_e, _FILTER_BLOCK_BYTES)) * self.rows)
        self.blocks = [(rows, block[: len(self.dw_rows[rows]) * self.rows].reshape(-1, self.rows))
                       for rows in _filter_blocks(model.w_e, _FILTER_BLOCK_BYTES)]
        self.zero_biases = (np.zeros(k), np.zeros(c))
        self._views = {}

    def views(self, b: int) -> _ChunkViews:
        """The buffers viewed for a chunk of ``b`` samples."""
        views = self._views.get(b)
        if views is None:
            views = self._views[b] = _ChunkViews(self, b)
        return views


def _add_weight_grad(ws: _Workspace, dout: np.ndarray, cols: np.ndarray, first: bool):
    """Add the conv2d weight gradient dout cols^T, of a (K, N) output
    gradient matrix and a patch matrix, into the workspace's gradient
    buffer, or write it there when ``first``, one block of filter rows at a
    time; each block's product is added from the filter-block buffer.  Each
    block is its rows of the whole-bank product."""
    for rows, block in ws.blocks:
        if first:
            _conv2d_weight_grad(dout[rows], cols, ws.dw_rows[rows])
        else:
            ws.dw_rows[rows] += _conv2d_weight_grad(dout[rows], cols, block)


def _check_bias_mode(bias_mode: str):
    if bias_mode not in BIAS_MODES:
        raise ValueError(f"bias_mode must be one of {BIAS_MODES}, got {bias_mode!r}")


def _forward(model: CaeModel, x: np.ndarray, b_e: np.ndarray, b_d: np.ndarray, ws: _Workspace):
    """The batched forward pass over a (B, C, H, W) chunk in ``ws``:
    (views, g), the chunk's :class:`_ChunkViews`, whose code buffer holds
    the code z, and the decoder pre-activation g.

    The cols(x) buffer takes im2col(x) for the encoder GEMM; the column
    buffer then takes the decoder's column matrix W^T z, which col2im folds
    into g: in one bincount when ``ws.small``, else into the padded
    buffer's interior, which g then is until the next im2col.  The decoder
    conv(z, tied(W)) is computed as that transposed convolution, which it
    equals for the same-size convolution, so no tied copy of the bank is
    formed.
    """
    v = ws.views(len(x))
    w = model.w_e.reshape(ws.k, ws.rows)
    _im2col(x, v.interior, v.patches, v.cols_x6)
    _conv2d(w, v.cols_x, b_e, v.code)
    np.maximum(v.code, 0.0, out=v.code)
    np.matmul(w.T, v.code, out=v.cols)
    g = _col2im(v.cols, v.shape, *ws.kernel) if ws.small else _fold(v.cols6, v.interior)
    g += b_d[:, None, None]
    return v, g


def _chunk_forward_backward(model: CaeModel, x: np.ndarray, b_e: np.ndarray, b_d: np.ndarray,
                            first: bool, ws: _Workspace):
    """One forward (:func:`_forward`) and backward pass over a chunk, in the
    workspace's buffers.

    Both weight terms reach W_e through the tie, so both go into the one
    gradient buffer (written when ``first``, added to otherwise).  The
    column buffer takes cols(dG) for the decoder's weight term dG-cols
    times z and for the input gradient conv(dG, W); that whole-bank GEMM
    overwrites z in the code buffer once z's ReLU mask is taken, and
    becomes da.  The encoder's weight term reads cols(x) from its buffer,
    refilled first unless ``ws.small``.  Returns
    (loss, db_e, db_d).
    """
    v, g = _forward(model, x, b_e, b_d, ws)
    r = relu(g) - x
    loss = 0.5 * float(np.add.reduce(r * r, axis=None))

    dg = r * (g > 0.0)
    del g, r
    db_d = conv2d_bias_grad(dg)
    _im2col(dg, v.interior, v.patches, v.cols6)
    _add_weight_grad(ws, v.code, v.cols, first)
    active = v.code > 0.0  # exactly where the pre-activation is
    # One whole-bank GEMM: blocks of W's rows change its bits at N = 4 (mod 8).
    # Its zero bias turns -0.0 into 0.0, as conv2d with a zero bias does.
    _conv2d(model.w_e.reshape(ws.k, ws.rows), v.cols, ws.zero_biases[0], v.code)
    v.code *= active
    db_e = conv2d_bias_grad(v.code_maps)
    if not ws.small:
        _im2col(x, v.interior, v.patches, v.cols_x6)
    _add_weight_grad(ws, v.code, v.cols_x, False)
    return loss, db_e, db_d


def _forward_backward(model: CaeModel, x: np.ndarray, bias_mode: str,
                      ws: _Workspace) -> tuple[float, CaeGradients]:
    """(loss, gradients) of a (B, C, H, W) batch, in workspace ``ws``,
    summed over its chunks into the workspace's weight-gradient buffer.
    ``bias_mode`` is one of :data:`BIAS_MODES`; callers check it."""
    train_biases = bias_mode == BIAS_TRAIN_THEN_ZERO
    b_e, b_d = (model.b_e, model.b_d) if train_biases else ws.zero_biases
    step = ws.chunk
    total = None
    for start in range(0, len(x), step):
        part = _chunk_forward_backward(model, x[start : start + step], b_e, b_d, total is None, ws)
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    loss, db_e, db_d = total
    if not train_biases:
        db_e, db_d = ws.zero_biases
    return loss, CaeGradients(ws.dw, db_e, db_d)


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
    after every epoch.  Returns (model, LossHistory).
    """
    data = _as_batch(model, dataset)
    n = len(data)
    history = LossHistory()
    if config.epochs == 0:
        return model, history

    _check_bias_mode(config.bias_mode)
    ws = _Workspace(model, data.shape[1:], min(config.batch_size, n))
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    plateau_run = 0
    anneals = 0
    best = None
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            batch = data[order[start : start + config.batch_size]]
            loss, grads = _forward_backward(model, batch, config.bias_mode, ws)
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite reconstruction loss at epoch {epoch}, batch {b}; "
                    f"reduce the learning rate"
                )
            sgd_step(model, grads, lr)
            total += loss
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
