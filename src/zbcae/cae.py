"""Zero-bias tied-weight convolutional auto-encoder.

The model owns a single encoder filter bank; decoder filters are always
derived from it, so no stale decoder state can exist.  Encoding is
ReLU(conv(x, W_e) + b), decoding is ReLU(conv(z, tied(W_e)) + b_d);
reconstruction loss is half the summed squared error over a batch.
Training, the loss and its gradients take their samples as one
(B, C, H, W) array; feature extraction takes a map or a batch.
Every convolution is the same-size one of :mod:`zbcae.ops` (stride 1, pad
(kernel - 1) / 2, odd kernel), so the reconstruction lands on the input
grid.  The loss is the training step's own loss, from one batched forward
pass that computes the tied decoder as the transposed convolution with
W_e, which equals conv(z, tied(W_e)) at that geometry.

A training step runs in one step workspace (:class:`_Workspace`) that
:func:`train` makes once and reuses for every step, whatever the batch
size, and calls the unchecked kernels of :mod:`zbcae.ops` on views of it
built once per chunk size.  A warm step allocates nothing the size of an
input map but the small step's bincount result.  One encoder
(:func:`_encode`) serves the forward pass and feature extraction, which
runs it with zero biases in a workspace of its own.  One backward pass
(:func:`_backward`) hands each block of filter rows' weight terms to a
sink: a batch of one chunk in :func:`train` moves W_e with them, with no
weight-gradient bank; a batch of several chunks and :func:`loss_gradients`
add them into a bank, which a batch in :func:`train` then drains through
the same SGD sink.  Every product of the step and of extraction takes
one block of rows of the bank at a time.  Three byte budgets size it
all: the training chunk, the filter block and one scratch budget for the
working sets formed next to a held one (an extraction chunk, a col2im
index).

Two bias regimes are supported.  ``train-then-zero`` (default) lets the
biases learn during reconstruction training and pins them to zero only for
feature extraction; ``always-zero`` treats them as the constant zero in
every forward pass and returns zero bias gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CollapseError, NonFiniteLossError, ShapeError, check_fields
from .ops import _col2im, _fold, _im2col, _im2col_views, conv2d_bias_grad, maxpool2

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

    epochs: int = field(default=100, metadata={">=": 0})
    batch_size: int = field(default=512, metadata={">=": 1})
    learning_rate: float = field(default=1e-5, metadata={">": 0})
    anneal_factor: float = field(default=0.1, metadata={"in": (0, 1)})
    plateau_patience: int = field(default=5, metadata={">=": 1})
    plateau_rel_tol: float = field(default=1e-3, metadata={">": 0})
    max_anneals: int = field(default=3, metadata={">=": 0})
    bias_mode: str = field(default=BIAS_TRAIN_THEN_ZERO, metadata={"one of": BIAS_MODES})
    seed: int = field(default=0, metadata={">=": 0})

    def __post_init__(self):
        check_fields(self)


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


def _as_batch(model: CaeModel, batch, map_ok: bool = False) -> np.ndarray:
    """``batch`` as a (B, C, H, W) float64 array, or where ``map_ok`` a
    (C, H, W) one checked as a batch of one; ShapeError unless it stacks
    into one array with four axes, at least one sample, the model's channel
    count and maps of a nonzero extent."""
    try:
        x = np.asarray(batch, dtype=np.float64)
    except ValueError as e:  # a ragged list of maps
        raise ShapeError(f"a batch must be B x C x H x W, but its maps do not stack into one array: {e}") from e
    if map_ok and x.ndim == 3:
        return _as_batch(model, x[None])[0]
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
# 14x14 maps) a chunk is ten samples: a batch of 8 runs as one chunk.
# A step holds one chunk's workspace; a batch of several chunks adds one
# gradient bank, so batch 512 needs no more than batch 11.
TRAIN_CHUNK_BYTES = 64 * 2**20


# Budget of one block of rows of the bank in every product of the step and
# of extraction: the encoder W cols(x) and da over blocks of W's rows, the
# decoder W^T z over blocks of W^T's rows, and the weight terms over blocks
# of the code's.  OpenBLAS packs and keeps resident a slice of a product's
# whole first operand, so a block bounds that buffer as well as the weight
# terms' temporaries.  At the paper geometry a block is 224 of the 4096
# filters (4.1 MB of a 75.5 MB bank) and 128 of W^T's 2304 rows; smaller
# blocks cost more time than they save memory there (a step's encoder-side
# term: 317 ms at 16 MiB, 340 ms at 4 MiB, 375 ms at 2 MiB, 438 ms at 1 MiB).
_FILTER_BLOCK_BYTES = 4 * 2**20


# Budget of a working set formed next to a held one, whose peak it adds to:
# an extraction chunk, the one chunk of :func:`extract_features`'s workspace
# (larger ones raise desk's peak RSS for no measurable speed; at K=4096 over
# 14x14 maps a chunk is one sample); a chunk's col2im index, whose fit makes
# the step small (``_Workspace.small``; desk: 124 KB for 4 samples, paper:
# 29 MB for 8).
_SCRATCH_BYTES = 2**18


def _block_rows(bank: np.ndarray, budget_bytes: int) -> int:
    """Rows per block of a (K, ...) array: as many as fit ``budget_bytes``,
    rounded down to a multiple of 8 (at least 8)."""
    return max(8, budget_bytes // (bank.nbytes // len(bank)) // 8 * 8)


def _filter_blocks(bank: np.ndarray, budget_bytes: int) -> list:
    """Consecutive slices of the rows of a (K, ...) array, each
    :func:`_block_rows` long but the last, which takes a tail of fewer than
    8 rows with it: no block but a whole bank of fewer than 8 rows is
    shorter than 8 rows, so none runs as the GEMV numpy makes of a one-row
    product, which rounds otherwise."""
    starts = range(0, max(len(bank) - 7, 1), _block_rows(bank, budget_bytes))
    return [slice(start, stop) for start, stop in zip(starts, (*starts[1:], len(bank)))]


class _ChunkViews:
    """The buffers of a :class:`_Workspace` viewed for a chunk of ``b``
    samples, N = b * H * W: the padded buffer's interior and patch view
    (:func:`zbcae.ops._im2col_views`), the code as a (K, N) matrix and as
    (B, K, H, W) maps, the column and cols(x) buffers as (C*kh*kw, N) and
    6-D patch matrices, and the column buffer's head as the (B, C, H, W)
    residual (C*kh*kw >= C)."""

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


class _Workspace:
    """Scratch memory of the training step, made once per :func:`train`,
    :func:`loss_gradients`, :func:`reconstruction_loss` or
    :func:`extract_features` call and sized for the largest chunk of a batch
    of ``samples`` maps, N = chunk * H * W, a chunk being what fits
    ``budget_bytes`` (:data:`TRAIN_CHUNK_BYTES` unless given):
    a zero-padded input buffer, whose border nothing writes; a code buffer
    (K x N); a column buffer (C*kh*kw x N), whose head holds the residual
    between the decoder's fold and cols(dG); a cols(x) buffer, a second
    column buffer when ``small``, else the column buffer, refilled;
    ``blocks``, (rows, dec, enc) per block of filter rows, views of a
    filter-block buffer (:data:`_FILTER_BLOCK_BYTES`) and of a second one
    when ``small``; ``col_blocks``, the decoder's slices of the column
    matrix's rows, one per block of W^T's rows; ``dw``, the gradient bank,
    made only by a step that sums one; the zero biases of always-zero mode;
    and ``active``, the positive code and reconstruction units counted
    since :func:`train` reset it.

    ``small``, the step's one switch, is whether the largest chunk's column
    matrix, and so its col2im index, fits :data:`_SCRATCH_BYTES`.  A small
    step holds cols(x) and folds the decoder's column matrix in one
    bincount (:func:`zbcae.ops._col2im`); any other refills cols(x) and
    folds into the padded buffer's interior (:func:`zbcae.ops._fold`).
    Each chunk size's views are built once, so the buffers' pages are
    touched on the first step and reused by every later one; extraction
    writes only the padded, code and cols(x) buffers, and the others, made
    with ``np.empty``, take no resident pages.
    """

    def __init__(self, model: CaeModel, sample_shape: tuple, samples: int, budget_bytes: int | None = None):
        k, c, kh, kw = model.w_e.shape
        _, h, w = sample_shape
        self.k, self.rows, self.sample_shape, self.kernel = k, c * kh * kw, (c, h, w), (kh, kw)
        self.chunk = chunk_size(model, sample_shape, budget_bytes or TRAIN_CHUNK_BYTES)
        most = min(samples, self.chunk)
        n = most * h * w
        self.padded = np.zeros(most * c * (h + kh - 1) * (w + kw - 1))
        self.code = np.empty(k * n)
        self.cols = np.empty(self.rows * n)
        self.small = 8 * self.rows * n <= _SCRATCH_BYTES
        self.cols_x = np.empty(self.rows * n) if self.small else self.cols
        filters = _filter_blocks(model.w_e, _FILTER_BLOCK_BYTES)
        dec = np.empty(max(len(model.w_e[rows]) for rows in filters) * self.rows)
        buffers = (dec, np.empty_like(dec) if self.small else dec)
        self.blocks = [(rows, *(b[: len(model.w_e[rows]) * self.rows].reshape(-1, self.rows) for b in buffers))
                       for rows in filters]
        self.col_blocks = _filter_blocks(model.w_e.reshape(k, self.rows).T, _FILTER_BLOCK_BYTES)
        self.zero_biases = (np.zeros(k), np.zeros(c))
        self.active = [0, 0]
        self._views = {}

    @cached_property
    def dw(self) -> np.ndarray:
        """The weight-gradient bank, (K, C*kh*kw)."""
        return np.empty((self.k, self.rows))

    def add(self, rows: slice, *terms: np.ndarray):
        """The bank's sink for :func:`_backward`: each term in turn, (total + dec) + enc."""
        for term in terms:
            self.dw[rows] += term

    def views(self, b: int) -> _ChunkViews:
        """The buffers viewed for a chunk of ``b`` samples."""
        if b not in self._views:
            self._views[b] = _ChunkViews(self, b)
        return self._views[b]


def _encode(model: CaeModel, x: np.ndarray, b_e: np.ndarray, ws: _Workspace) -> _ChunkViews:
    """The encoder over a (B, C, H, W) chunk in ``ws``: the chunk's
    :class:`_ChunkViews`, with cols(x) in the cols(x) buffer and the code
    z = ReLU(W cols(x) + b_e) in the code buffer, one GEMM per block of
    filter rows (``ws.blocks``), each followed by its bias add and ReLU
    while its rows of z are still in cache.  Training encodes with its
    biases, extraction with zero ones."""
    v = ws.views(len(x))
    _im2col(x, v.interior, v.patches, v.cols_x6)
    w = model.w_e.reshape(ws.k, ws.rows)
    for rows, *_ in ws.blocks:
        z = np.matmul(w[rows], v.cols_x, out=v.code[rows])
        z += b_e[rows, None]
        np.maximum(z, 0.0, out=z)
    return v


def _forward(model: CaeModel, x: np.ndarray, b_e: np.ndarray, b_d: np.ndarray, ws: _Workspace):
    """The batched forward pass over a (B, C, H, W) chunk in ``ws``:
    (views, g), the chunk's :class:`_ChunkViews`, whose code buffer holds
    the code z (:func:`_encode`), and the decoder pre-activation g.  The
    decoder's column matrix W^T z goes into the column buffer one GEMM per
    block of W^T's rows (``ws.col_blocks``) and is folded into g: in one
    bincount when ``ws.small``, else into the padded buffer's interior.
    That transposed convolution equals conv(z, tied(W)) for the same-size
    convolution, so no tied copy of the bank is formed."""
    v = _encode(model, x, b_e, ws)
    w = model.w_e.reshape(ws.k, ws.rows)
    for rows in ws.col_blocks:
        np.matmul(w[:, rows].T, v.code, out=v.cols[rows])
    g = _col2im(v.cols, v.shape, *ws.kernel) if ws.small else _fold(v.cols6, v.interior)
    g += b_d[:, None, None]
    return v, g


def _chunk_loss(model: CaeModel, x: np.ndarray, bias_mode: str, ws: _Workspace):
    """The forward pass (:func:`_forward`) and loss of a chunk: (views,
    loss, db_d), with z in the code buffer and cols(dG) in the column
    buffer.  The residual r = relu(g) - x goes into the column buffer's
    head, dead once g is folded; dG = r (g > 0) overwrites g, and r is
    squared in place for the loss.  ``bias_mode`` is one of
    :data:`BIAS_MODES`; callers check it."""
    biases = (model.b_e, model.b_d) if bias_mode == BIAS_TRAIN_THEN_ZERO else ws.zero_biases
    v, g = _forward(model, x, *biases, ws)
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


def _backward(model: CaeModel, x: np.ndarray, v: _ChunkViews, ws: _Workspace, sink) -> np.ndarray:
    """The backward pass of the chunk ``x`` whose :func:`_chunk_loss` is in
    ``v``, a block of filter rows at a time; returns db_e.  A block forms its
    decoder term dG-cols z^T, then its da from its rows of W over the code
    it overwrites, times its bool ReLU mask, and then calls ``sink(rows,
    dec, enc)`` with its encoder term da cols(x)^T where the step is small
    (holds cols(x)).  Any other calls ``sink(rows, dec)``, refills cols(x),
    then calls ``sink(rows, enc)`` per block."""
    w = model.w_e.reshape(ws.k, ws.rows)
    for rows, dec, enc in ws.blocks:
        np.matmul(v.code[rows], v.cols.T, out=dec)
        mask = v.code[rows] > 0.0
        ws.active[0] += np.count_nonzero(mask)
        np.matmul(w[rows], v.cols, out=v.code[rows])
        v.code[rows] *= mask
        sink(rows, dec, *((np.matmul(v.code[rows], v.cols_x.T, out=enc),) if ws.small else ()))
    if not ws.small:
        _im2col(x, v.interior, v.patches, v.cols_x6)
        for rows, _, enc in ws.blocks:
            sink(rows, np.matmul(v.code[rows], v.cols_x.T, out=enc))
    return conv2d_bias_grad(v.code_maps)


def _sgd_sink(w: np.ndarray, lr: float):
    """The training step's one weight update, a sink for :func:`_backward`:
    moves the rows of the (K, C*kh*kw) bank ``w`` by -lr times their terms,
    scaled in place (LOMO's fused update, Lv et al., arXiv:2306.09782).  A
    small step's two terms are summed first, so where the bank is one block
    (desk) W_e gets the bits of ``w_e -= lr * dw_e`` with dw_e = dec + enc.
    Other steps move rows by lr dec, then by lr enc.  A gradient bank's
    block is one term: the bits of ``w_e -= lr * dw_e``."""

    def move(rows, term, *enc):
        for other in enc:
            term += other
        term *= lr
        w[rows] -= term

    return move


def _forward_backward(model: CaeModel, x: np.ndarray, bias_mode: str, ws: _Workspace) -> tuple[float, CaeGradients]:
    """(loss, gradients) of a (B, C, H, W) batch in workspace ``ws``, summed
    over its chunks into the gradient bank (:meth:`_Workspace.add`).
    ``bias_mode`` is one of :data:`BIAS_MODES`; callers check it."""
    ws.dw.fill(0.0)
    total = None
    for start in range(0, len(x), ws.chunk):
        chunk = x[start : start + ws.chunk]
        v, loss, db_d = _chunk_loss(model, chunk, bias_mode, ws)
        part = (loss, _backward(model, chunk, v, ws, ws.add), db_d)
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    loss, db_e, db_d = total
    if bias_mode != BIAS_TRAIN_THEN_ZERO:
        db_e, db_d = ws.zero_biases
    return loss, CaeGradients(ws.dw.reshape(model.w_e.shape), db_e, db_d)


def reconstruction_loss(model: CaeModel, batch, bias_mode: str = BIAS_TRAIN_THEN_ZERO) -> float:
    """Half the summed squared reconstruction error over the batch: the
    training step's own loss, from its forward pass alone.  In always-zero
    mode both biases are pinned to zero, as in the gradients of that mode.
    """
    x = _as_batch(model, batch)
    CaeTrainConfig(bias_mode=bias_mode)
    ws = _Workspace(model, x.shape[1:], len(x))
    return sum(_chunk_loss(model, x[start : start + ws.chunk], bias_mode, ws)[1]
               for start in range(0, len(x), ws.chunk))


def loss_gradients(model: CaeModel, batch, bias_mode: str = BIAS_TRAIN_THEN_ZERO) -> CaeGradients:
    """Exact gradient of the reconstruction loss.

    The W_e gradient sums the encoder-path and decoder-path contributions,
    since the tied decoder shares W_e.  ReLU backprop uses subgradient 0 at
    exactly 0.  In always-zero mode the bias gradients are zero and the
    forward pass treats both biases as the constant 0.
    """
    x = _as_batch(model, batch)
    CaeTrainConfig(bias_mode=bias_mode)
    return _forward_backward(model, x, bias_mode, _Workspace(model, x.shape[1:], len(x)))[1]


def _train_step(model: CaeModel, x: np.ndarray, bias_mode: str, lr: float, ws: _Workspace, where: str) -> float:
    """One SGD step at ``lr`` on a (B, C, H, W) batch in ``ws``; returns its
    loss.  W_e moves through one :func:`_sgd_sink`: a batch of one chunk
    hands it to its backward pass, one of several sums its gradient in the
    bank and then hands it each filter block of the bank, which it scales
    in place.  A non-finite loss raises NonFiniteLossError naming ``where``
    before any parameter moves."""
    if len(x) > ws.chunk:
        loss, grads = _forward_backward(model, x, bias_mode, ws)
    else:
        v, loss, db_d = _chunk_loss(model, x, bias_mode, ws)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"non-finite reconstruction loss at {where}; reduce the learning rate")
    move = _sgd_sink(model.w_e.reshape(ws.k, ws.rows), lr)
    if len(x) > ws.chunk:
        for rows, *_ in ws.blocks:
            move(rows, ws.dw[rows])
        db_e, db_d = grads.db_e, grads.db_d
    else:
        db_e = _backward(model, x, v, ws, move)
    if bias_mode == BIAS_TRAIN_THEN_ZERO:
        model.b_e -= lr * db_e
        model.b_d -= lr * db_d
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


def extract_features(model: CaeModel, x) -> np.ndarray:
    """Feed-forward feature vector: zero-bias encode, 2x2 max-pool, flatten.

    Bias values never influence the output, so the result has length
    D = K * ceil(H/2) * ceil(W/2) and is elementwise non-negative.  A
    (B, C, H, W) batch gives a (B, D) matrix; a (C, H, W) map, a batch of
    one, gives a vector.  Either may be an array or a list, checked by
    :func:`_as_batch`.  The batch is encoded by :func:`_encode` in one
    workspace whose chunk fits :data:`_SCRATCH_BYTES`, and each chunk's
    pooled code is written into the result.
    """
    x = _as_batch(model, x, map_ok=True)
    batch = x.reshape(-1, *x.shape[-3:])
    ws = _Workspace(model, batch.shape[1:], len(batch), _SCRATCH_BYTES)
    _, h, w = ws.sample_shape
    features = np.empty((len(batch), ws.k * -(-h // 2) * -(-w // 2)))
    for start in range(0, len(batch), ws.chunk):
        chunk = batch[start : start + ws.chunk]
        v = _encode(model, chunk, ws.zero_biases[0], ws)
        features[start : start + len(chunk)] = maxpool2(v.code_maps).reshape(len(chunk), -1)
    return features if x.ndim == 4 else features[0]
