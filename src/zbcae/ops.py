"""Dense float64 tensor kernels.

Everything here is a pure function of its inputs: the same-size 2D
cross-correlation and its adjoints, kernel flipping, ReLU and 2x2
max-pooling.  Tensors are plain ``numpy`` arrays of ``float64``; a feature
map is ``(C, H, W)``, a batch of maps is ``(B, C, H, W)`` and a filter bank
is ``(K, C, kh, kw)``.  ``im2col``/``col2im`` and the convolutions accept
either a single map or a batch; a batch runs as one GEMM per call.
``im2col`` copies its patch matrix out of a strided view of the padded
batch; ``col2im`` is a bincount scatter-add over the same positions
``im2col`` reads, one sample at a time.  ``im2col`` and the convolutions
also take an optional ``out``, a caller-owned C-contiguous float64 buffer
that the patch matrix or the GEMM's product is written to, with the bits
of the freshly allocated result; writing it is their only side effect.

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


def _check_out(out: np.ndarray, shape: tuple, opname: str) -> np.ndarray:
    """``out`` itself when it is a writeable, C-contiguous float64 array of
    ``shape``; ShapeError otherwise."""
    if not isinstance(out, np.ndarray):
        raise ShapeError(f"{opname} out must be a numpy array, got {type(out).__name__}")
    if (out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous
            or not out.flags.writeable):
        raise ShapeError(f"{opname} out must be a writeable C-contiguous float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape} (C-contiguous: {out.flags.c_contiguous}, "
                         f"writeable: {out.flags.writeable})")
    return out


def _half_pad(kh: int, kw: int) -> tuple:
    """Zero padding (k - 1) / 2 of each odd kernel extent; ShapeError for an
    even one, which has no same-size padding."""
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"same-size convolution needs odd kernel extents, got {kh} x {kw}")
    return (kh - 1) // 2, (kw - 1) // 2


def im2col(x: np.ndarray, kh: int, kw: int, out: np.ndarray | None = None) -> np.ndarray:
    """Unfold a (C, H, W) map, or a (B, C, H, W) batch of them, into a
    (C*kh*kw, B*H*W) patch matrix (B = 1 for a single map).

    Rows run over (c, u, v) in row-major order, so a filter bank reshaped to
    (K, C*kh*kw) multiplies the matrix directly; columns run over
    (b, i, j), the output positions of every sample in turn.  The whole
    batch is padded once into one zero-filled buffer, and the matrix is
    copied out of a (C, kh, kw, B, H, W) view built from that buffer's
    strides: entry (c, u, v, b, i, j) reads xpad[b, c, i + u, j + v].
    ``out``, when given, is the (C*kh*kw, B*H*W) buffer the matrix is
    copied into and returned in.
    """
    ph, pw = _half_pad(kh, kw)
    xb = x if x.ndim == 4 else x[None]
    b, c, h, w = xb.shape
    xp = np.zeros((b, c, h + 2 * ph, w + 2 * pw))
    xp[:, :, ph : ph + h, pw : pw + w] = xb
    sb, sc, sh, sw = xp.strides
    patches = np.ndarray((c, kh, kw, b, h, w), dtype=xp.dtype, buffer=xp, strides=(sc, sh, sw, sb, sh, sw))
    if out is None:
        return patches.reshape(c * kh * kw, b * h * w)
    np.copyto(_check_out(out, (c * kh * kw, b * h * w), "im2col").reshape(patches.shape), patches)
    return out


@lru_cache(maxsize=16)
def _col2im_index(c: int, h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """Read-only flat index of each (c, u, v, i, j) entry of a one-sample
    patch matrix into a (C*H*W + 1) sample: the position (c, i + u - ph,
    j + v - pw) that :func:`im2col` read it from, or the last slot, C*H*W,
    for an entry read from the zero padding."""
    ph, pw = _half_pad(kh, kw)
    rows = np.arange(kh)[:, None, None, None] + np.arange(h)[:, None] - ph  # (kh, 1, h, 1)
    cols = np.arange(kw)[:, None, None] + np.arange(w) - pw  # (kw, 1, w)
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    flat = np.arange(c)[:, None, None, None, None] * (h * w) + rows * w + cols
    index = np.where(inside, flat, c * h * w).astype(np.intp).ravel()
    index.flags.writeable = False
    return index


def col2im(cols: np.ndarray, shape: tuple, kh: int, kw: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch columns back to a map of
    ``shape``, either (C, H, W) or (B, C, H, W).

    Each sample is one ``np.bincount`` over :func:`_col2im_index`, whose
    last slot collects (and drops) the entries that fell in the padding.
    Every output entry sums its terms in (u, v) order starting from 0.0.
    """
    b, c, h, w = shape if len(shape) == 4 else (1, *shape)
    index = _col2im_index(c, h, w, kh, kw)
    per_sample = cols.reshape(c * kh * kw, b, h * w)
    out = np.empty((b, c * h * w))
    for s in range(b):
        out[s] = np.bincount(index, weights=per_sample[:, s].ravel(), minlength=c * h * w + 1)[:-1]
    return out.reshape(shape)


def _by_channel(maps: np.ndarray) -> np.ndarray:
    """(K, H, W) or (B, K, H, W) maps as a (K, B*H*W) matrix whose columns
    follow :func:`im2col`'s order (a view for the outputs of :func:`conv2d`)."""
    k = maps.shape[-3]
    return maps.reshape(k, -1) if maps.ndim == 3 else maps.swapaxes(0, 1).reshape(k, -1)


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
           cols: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Same-size cross-correlation of a (C, H, W) map, or a (B, C, H, W)
    batch, with a (K, C, kh, kw) bank of odd kernel extents.

    out[k, i, j] = bias[k]
                 + sum_{c,u,v} xpad[c, i + u, j + v] * weights[k, c, u, v]

    with xpad the input zero-padded by (kh - 1) / 2 rows and (kw - 1) / 2
    columns on each side, so the output keeps the input's extent.  Bias is
    one scalar per output map.  A batch is one GEMM; its (B, K, H, W) result
    is a view of (K, B, H, W) memory.  ``cols``, when given, is
    ``im2col(x, kh, kw)`` already computed by the caller.  ``out``, when
    given, is the (K, B*H*W) buffer the GEMM writes; the result is a view
    of it.
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
    if cols is None:
        cols = im2col(x, kh, kw)
    if out is not None:
        _check_out(out, (k, cols.shape[1]), "conv2d")
    out = np.matmul(w.reshape(k, c * kh * kw), cols, out=out)
    out += b[:, None]
    if x.ndim == 3:
        return out.reshape(k, *x.shape[1:])
    return out.reshape(k, x.shape[0], *x.shape[2:]).swapaxes(0, 1)


def conv2d_weight_grad(x: np.ndarray, dout: np.ndarray, kh: int, kw: int,
                       cols: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weights, given dL/dout of shape
    (K, H, W), or (B, K, H, W) summed over the batch.  ``cols``, when
    given, is ``im2col(x, kh, kw)``; ``out``, when given, is the
    (K, C, kh, kw) buffer the gradient is written to and returned in."""
    if cols is None:
        cols = im2col(np.asarray(x, dtype=np.float64), kh, kw)
    d = _by_channel(dout)
    shape = (d.shape[0], x.shape[-3], kh, kw)
    if out is None:
        return (d @ cols.T).reshape(shape)
    np.matmul(d, cols.T, out=_check_out(out, shape, "conv2d_weight_grad").reshape(d.shape[0], -1))
    return out


def conv2d_input_grad(dout: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input, given dL/dout of shape (K, H, W)
    or (B, K, H, W): the transposed convolution of ``dout``, a (C, H, W) or
    (B, C, H, W) map, folded by :func:`col2im` from the column matrix
    W^T dout.  ``out``, when given, is the (C*kh*kw, B*H*W) buffer that
    column matrix is written to; the returned map is always fresh."""
    k, c, kh, kw = weights.shape
    d = _by_channel(dout)
    if out is not None:
        _check_out(out, (c * kh * kw, d.shape[1]), "conv2d_input_grad")
    dcols = np.matmul(weights.reshape(k, c * kh * kw).T, d, out=out)
    return col2im(dcols, (*dout.shape[:-3], c, *dout.shape[-2:]), kh, kw)


def conv2d_bias_grad(dout: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its per-map bias: sum over each output map
    (and over the batch for a (B, K, Ho, Wo) gradient)."""
    return dout.sum(axis=(1, 2)) if dout.ndim == 3 else dout.sum(axis=(0, 2, 3))


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
