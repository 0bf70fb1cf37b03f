"""Dense float64 tensor kernels.

Everything here is a pure function of its inputs: the same-size 2D
cross-correlation and its adjoints, kernel flipping, ReLU and 2x2
max-pooling.  Tensors are plain ``numpy`` arrays of ``float64``; a feature
map is ``(C, H, W)``, a batch of maps is ``(B, C, H, W)`` and a filter bank
is ``(K, C, kh, kw)``.  ``im2col``/``col2im`` and the convolutions accept
either a single map or a batch; a batch runs as one GEMM per call.
``im2col`` writes the batch into the interior of a zero-padded buffer
and copies its patch matrix out of a strided view of that buffer;
``col2im`` adds the patch matrix into a map with kh*kw shifted slice
adds, each clipped to the map (``_fold``), or, for the training step's
small chunks, scatter-adds it in one bincount over an index cached per
geometry and batch size (``_col2im``).  The public kernels check their
arguments and return fresh arrays; each calls an unchecked private kernel
(``_im2col``, ``_fold``, ``_conv2d``, ``_conv2d_weight_grad``), which the
training step of :mod:`zbcae.cae` calls directly on views of buffers that
its workspace holds.

The convolution has one geometry, the same-size one: stride 1 and zero
padding (k - 1) / 2 around an odd kernel extent k.  There the transposed
convolution with a bank W equals the convolution with
:func:`tied_decoder_weights` (W).  ``conv2d`` is cross-correlation: no
kernel flip happens inside it; the decoder's 180-degree flip is explicit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ShapeError


def _as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def _half_pad(kh: int, kw: int) -> tuple:
    """Zero padding (k - 1) / 2 of each odd kernel extent; ShapeError for an
    even one, which has no same-size padding."""
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"same-size convolution needs odd kernel extents, got {kh} x {kw}")
    return (kh - 1) // 2, (kw - 1) // 2


def _im2col_views(xp: np.ndarray, kh: int, kw: int) -> tuple:
    """(interior, patches): two views of a zero-padded (B, C, H + kh - 1,
    W + kw - 1) buffer ``xp``.  ``interior`` is its (B, C, H, W) middle, the
    input's place; ``patches`` is the (C, kh, kw, B, H, W) view whose entry
    (c, u, v, b, i, j) reads xp[b, c, i + u, j + v]."""
    b, c, hp, wp = xp.shape
    h, w = hp - kh + 1, wp - kw + 1
    sb, sc, sh, sw = xp.strides
    patches = np.ndarray((c, kh, kw, b, h, w), dtype=xp.dtype, buffer=xp, strides=(sc, sh, sw, sb, sh, sw))
    return xp[:, :, (kh - 1) // 2 : (kh - 1) // 2 + h, (kw - 1) // 2 : (kw - 1) // 2 + w], patches


def _im2col(x: np.ndarray, interior: np.ndarray, patches: np.ndarray, out: np.ndarray) -> None:
    """The im2col kernel, unchecked: write x into ``interior`` and copy
    ``patches`` (both from :func:`_im2col_views` of one buffer whose padding
    is zero) into ``out``, the patch matrix viewed at patches' shape."""
    interior[...] = x
    out[...] = patches


def im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Unfold a (C, H, W) map, or a (B, C, H, W) batch of them, into a
    (C*kh*kw, B*H*W) patch matrix (B = 1 for a single map).

    Rows run over (c, u, v) in row-major order, so a filter bank reshaped to
    (K, C*kh*kw) multiplies the matrix directly; columns run over
    (b, i, j), the output positions of every sample in turn.  The whole
    batch is written into the interior of one zero-filled padded buffer,
    and the matrix is copied out of a (C, kh, kw, B, H, W) view built from
    that buffer's strides (:func:`_im2col_views`): entry (c, u, v, b, i, j)
    reads xpad[b, c, i + u, j + v].
    """
    ph, pw = _half_pad(kh, kw)
    xb = x if x.ndim == 4 else x[None]
    b, c, h, w = xb.shape
    interior, patches = _im2col_views(np.zeros((b, c, h + 2 * ph, w + 2 * pw)), kh, kw)
    out = np.empty((c * kh * kw, b * h * w))
    _im2col(xb, interior, patches, out.reshape(patches.shape))
    return out


@lru_cache(maxsize=16)
def _col2im_index(c: int, h: int, w: int, kh: int, kw: int, samples: int = 1) -> np.ndarray:
    """Read-only flat index of each (c, u, v, s, i, j) entry of the patch
    matrix of ``samples`` maps into a (samples*C*H*W + 1) vector: the
    position s*C*H*W + (c, i + u - ph, j + v - pw) that :func:`im2col` read
    it from, or the last slot, samples*C*H*W, for an entry read from the
    zero padding."""
    ph, pw = _half_pad(kh, kw)
    size = c * h * w
    rows = np.arange(kh)[:, None, None, None, None] + np.arange(h)[:, None] - ph  # (kh, 1, 1, h, 1)
    cols = np.arange(kw)[:, None, None, None] + np.arange(w) - pw  # (kw, 1, 1, w)
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    flat = (np.arange(c)[:, None, None, None, None, None] * (h * w) + rows * w + cols
            + np.arange(samples)[:, None, None] * size)  # (c, kh, kw, samples, h, w)
    index = np.where(inside, flat, samples * size).astype(np.intp).ravel()
    index.flags.writeable = False
    return index


def _col2im(cols: np.ndarray, shape: tuple, kh: int, kw: int) -> np.ndarray:
    """The bincount col2im kernel, unchecked: fold a C-contiguous
    (C*kh*kw, B*H*W) matrix into a (B, C, H, W) map of ``shape`` with one
    ``np.bincount`` over :func:`_col2im_index` of the whole batch, whose
    last slot collects (and drops) the entries read from the padding.  It
    suits batches whose index is small; :func:`_fold` needs no index."""
    b, c, h, w = shape
    index = _col2im_index(c, h, w, kh, kw, b)
    return np.bincount(index, weights=cols.ravel(), minlength=b * c * h * w + 1)[:-1].reshape(shape)


def _fold(cols6: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The col2im kernel, unchecked: fold the (C, kh, kw, B, H, W) patch
    matrix ``cols6`` into ``out``, any (B, C, H, W) map, and return it.
    Each (u, v) slice is added only where it lands inside the map (a slice
    that lands wholly outside, as with a kernel wider than the map, is
    skipped), so nothing but ``out`` is written.  Each entry sums its terms
    in (u, v) order from 0.0, as the bincount of :func:`_col2im` does, so
    both give the same bits."""
    _, kh, kw, _, h, w = cols6.shape
    out.fill(0.0)
    for u in range(kh):
        du = u - (kh - 1) // 2
        for v in range(kw):
            dv = v - (kw - 1) // 2
            if abs(du) < h and abs(dv) < w:
                out[:, :, max(du, 0) : h + min(du, 0), max(dv, 0) : w + min(dv, 0)] += (
                    cols6[:, u, v, :, max(-du, 0) : h - max(du, 0), max(-dv, 0) : w - max(dv, 0)].swapaxes(0, 1))
    return out


def col2im(cols: np.ndarray, shape: tuple, kh: int, kw: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch columns back to a map of
    ``shape``, either (C, H, W) or (B, C, H, W).

    The columns are added into a fresh map with kh*kw shifted slice adds
    (:func:`_fold`), each clipped to the map, so the entries read from the
    padding are dropped.  Every output entry sums its terms in (u, v) order
    starting from 0.0, as the training step's bincount does, so both give
    the same bits.
    """
    _half_pad(kh, kw)
    b, c, h, w = shape if len(shape) == 4 else (1, *shape)
    return _fold(np.reshape(cols, (c, kh, kw, b, h, w)), np.empty((b, c, h, w))).reshape(shape)


def _by_channel(maps: np.ndarray) -> np.ndarray:
    """(K, H, W) or (B, K, H, W) maps as a (K, B*H*W) matrix whose columns
    follow :func:`im2col`'s order (a view for the outputs of :func:`conv2d`)."""
    k = maps.shape[-3]
    return maps.reshape(k, -1) if maps.ndim == 3 else maps.swapaxes(0, 1).reshape(k, -1)


def _conv2d(w: np.ndarray, cols: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The conv2d kernel, unchecked: the (K, N) GEMM of a bank matrix
    (K, C*kh*kw) and a patch matrix, plus one bias per row, in ``out`` when
    given."""
    out = np.matmul(w, cols, out=out)
    out += bias[:, None]
    return out


def _conv2d_weight_grad(d: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The conv2d_weight_grad kernel, unchecked: the (K, C*kh*kw) GEMM
    d cols^T of an output gradient matrix (K, N) and a patch matrix, in
    ``out`` when given."""
    return np.matmul(d, cols.T, out=out)


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size cross-correlation of a (C, H, W) map, or a (B, C, H, W)
    batch, with a (K, C, kh, kw) bank of odd kernel extents.

    out[k, i, j] = bias[k]
                 + sum_{c,u,v} xpad[c, i + u, j + v] * weights[k, c, u, v]

    with xpad the input zero-padded by (kh - 1) / 2 rows and (kw - 1) / 2
    columns on each side, so the output keeps the input's extent.  Bias is
    one scalar per output map.  A batch is one GEMM; its (B, K, H, W) result
    is a view of (K, B, H, W) memory.
    """
    x = np.asarray(x, dtype=np.float64)
    w = _as_f64(weights)
    b = _as_f64(bias)
    if x.ndim not in (3, 4):
        raise ShapeError(f"conv2d input must be C x H x W or B x C x H x W, got {x.ndim}-D shape {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d weights must be K x C x kh x kw, got {w.ndim}-D shape {w.shape}")
    k, c, kh, kw = w.shape
    if x.shape[-3] != c:
        raise ShapeError(f"input has {x.shape[-3]} channels but weights expect {c}")
    if b.shape != (k,):
        raise ShapeError(f"bias has length {b.size} but there are {k} filters")
    out = _conv2d(w.reshape(k, c * kh * kw), im2col(x, kh, kw), b)
    if x.ndim == 3:
        return out.reshape(k, *x.shape[1:])
    return out.reshape(k, x.shape[0], *x.shape[2:]).swapaxes(0, 1)


def conv2d_weight_grad(x: np.ndarray, dout: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weights, given dL/dout of shape
    (K, H, W), or (B, K, H, W) summed over the batch."""
    x = np.asarray(x, dtype=np.float64)
    d = _by_channel(dout)
    return _conv2d_weight_grad(d, im2col(x, kh, kw)).reshape(d.shape[0], x.shape[-3], kh, kw)


def conv2d_input_grad(dout: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input, given dL/dout of shape (K, H, W)
    or (B, K, H, W): the transposed convolution of ``dout``, a (C, H, W) or
    (B, C, H, W) map, folded by :func:`col2im` from the column matrix
    W^T dout."""
    k, c, kh, kw = weights.shape
    shape = (c, *dout.shape[1:]) if dout.ndim == 3 else (len(dout), c, *dout.shape[2:])
    return col2im(weights.reshape(k, c * kh * kw).T @ _by_channel(dout), shape, kh, kw)


def conv2d_bias_grad(dout: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its per-map bias: sum over each output map
    (and over the batch for a (B, K, Ho, Wo) gradient)."""
    return np.add.reduce(dout, axis=(1, 2) if dout.ndim == 3 else (0, 2, 3))


def _check_4d(w, opname: str) -> np.ndarray:
    w = np.asarray(w)
    if w.ndim != 4:
        raise ShapeError(f"{opname} expects a 4-D filter bank, got {w.ndim}-D shape {w.shape}")
    return w


def flip180(weights: np.ndarray) -> np.ndarray:
    """Rotate every kernel of a (K, C, kh, kw) bank by 180 degrees."""
    w = _check_4d(weights, "flip180")
    return _as_f64(w[:, :, ::-1, ::-1])


def tied_decoder_weights(w_e: np.ndarray) -> np.ndarray:
    """Derive decoder filters from encoder filters: transpose the filter and
    channel axes and rotate each kernel 180 degrees.

    out[c, k, u, v] = w_e[k, c, kh-1-u, kw-1-v].  Applying the map twice
    returns the original bank.
    """
    w = _check_4d(w_e, "tied_decoder_weights")
    return _as_f64(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x), in the memory layout of ``x``."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max-pool with stride 2 over the last two axes of a (..., H, W)
    array with at least three axes, such as a (K, H, W) map or a
    (B, K, H, W) batch.

    Odd extents keep a final window truncated at the border: the input is
    copied into a -inf-padded buffer of even extents, and the result, of
    shape (..., ceil(H/2), ceil(W/2)), is the elementwise maximum of its
    four stride-2 slices.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3:
        raise ShapeError(f"maxpool2 input needs at least 3 axes (... x H x W), got {x.ndim}-D shape {x.shape}")
    *lead, h, w = x.shape
    padded = np.full((*lead, h + h % 2, w + w % 2), -np.inf)
    padded[..., :h, :w] = x
    top = np.maximum(padded[..., 0::2, 0::2], padded[..., 0::2, 1::2])
    bottom = np.maximum(padded[..., 1::2, 0::2], padded[..., 1::2, 1::2])
    return np.maximum(top, bottom, out=top)
