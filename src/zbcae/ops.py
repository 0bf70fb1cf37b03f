"""Dense float64 tensor kernels.

Everything here is a function of its inputs alone: the kernels of the
same-size 2D cross-correlation, its bias gradient, kernel flipping and
2x2 max-pooling.  Tensors are plain ``numpy`` arrays of ``float64``; a
feature map is ``(C, H, W)``, a batch of maps is ``(B, C, H, W)`` and a
filter bank is ``(K, C, kh, kw)``.  The public ops (``conv2d_bias_grad``,
``flip180``, ``tied_decoder_weights`` and ``maxpool2``) check their
arguments and return fresh arrays.  The convolution itself runs only in
:mod:`zbcae.cae`'s step workspace, which calls the unchecked private
kernels on views of its buffers: ``_im2col``, which writes a batch into
the interior of a zero-padded buffer and copies its patch matrix out of
a strided view of that buffer (``_im2col_views``), and the two folds of a
patch matrix back into a map (the adjoint of im2col), ``_fold``'s kh*kw
shifted slice adds and ``_col2im``'s one bincount.  The GEMMs in between
are the workspace's own.

The convolution has one geometry, the same-size one: stride 1 and zero
padding (k - 1) / 2 around an odd kernel extent k.  There the transposed
convolution with a bank W equals the convolution with
:func:`tied_decoder_weights` (W).  The convolution is cross-correlation:
no kernel flip happens inside it; the decoder's 180-degree flip is
explicit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ShapeError


def _as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


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


@lru_cache(maxsize=16)
def _col2im_index(c: int, h: int, w: int, kh: int, kw: int, samples: int = 1) -> np.ndarray:
    """Read-only flat index of each (c, u, v, s, i, j) entry of the patch
    matrix of ``samples`` maps into a (samples*C*H*W + 1) vector: the
    position s*C*H*W + (c, i + u - ph, j + v - pw) that :func:`_im2col` read
    it from, or the last slot, samples*C*H*W, for an entry read from the
    zero padding."""
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
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


def conv2d_bias_grad(dout: np.ndarray) -> np.ndarray:
    """Gradient of the convolution w.r.t. its per-map bias: sum over each map
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


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max-pool with stride 2 over the last two axes of a (..., H, W)
    array with at least three axes, such as a (K, H, W) map or a
    (B, K, H, W) batch.

    The result, of shape (..., ceil(H/2), ceil(W/2)), is the elementwise
    maximum of the input's four stride-2 slices.  Odd extents keep a final
    window truncated at the border: only then is the input first copied
    into a -inf-padded buffer of even extents.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3:
        raise ShapeError(f"maxpool2 input needs at least 3 axes (... x H x W), got {x.ndim}-D shape {x.shape}")
    *lead, h, w = x.shape
    if h % 2 or w % 2:
        padded = np.full((*lead, h + h % 2, w + w % 2), -np.inf)
        padded[..., :h, :w] = x
        x = padded
    top = np.maximum(x[..., 0::2, 0::2], x[..., 0::2, 1::2])
    bottom = np.maximum(x[..., 1::2, 0::2], x[..., 1::2, 1::2])
    return np.maximum(top, bottom, out=top)
