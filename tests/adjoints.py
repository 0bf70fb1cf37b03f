"""The same-size convolution, its adjoints and the SGD update as
whole-array functions, for tests, built from what the CAE training step
runs: the patch matrix of a zero-padded buffer (``zbcae.ops._im2col_views``
and ``_im2col``), the fold of a patch matrix back into a map
(``zbcae.ops._fold``) and the step's GEMMs, W cols for the convolution,
W^T dout for the transposed convolution and dout cols^T for the weight
gradient.  :func:`im2col`, :func:`conv2d` and :func:`sgd_step` check their
arguments; the others do not."""

import numpy as np

from zbcae import ops
from zbcae.errors import ShapeError


def by_channel(maps):
    """(K, H, W) or (B, K, H, W) maps as a (K, B*H*W) matrix whose columns
    follow :func:`im2col`'s order."""
    k = maps.shape[-3]
    return maps.reshape(k, -1) if maps.ndim == 3 else maps.swapaxes(0, 1).reshape(k, -1)


def im2col(x, kh, kw):
    """Unfold a (C, H, W) map, or a (B, C, H, W) batch of them, into a
    (C*kh*kw, B*H*W) patch matrix (B = 1 for a single map) of odd kernel
    extents: rows over (c, u, v), so a bank reshaped to (K, C*kh*kw)
    multiplies it directly, and columns over (b, i, j), the output positions
    of every sample in turn.  ShapeError for an even extent, which has no
    same-size padding."""
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"same-size convolution needs odd kernel extents, got {kh} x {kw}")
    xb = x if x.ndim == 4 else x[None]
    b, c, h, w = xb.shape
    interior, patches = ops._im2col_views(np.zeros((b, c, h + kh - 1, w + kw - 1)), kh, kw)
    out = np.empty((c * kh * kw, b * h * w))
    ops._im2col(xb, interior, patches, out.reshape(patches.shape))
    return out


def conv2d(x, weights, bias):
    """Same-size cross-correlation of a (C, H, W) map, or a (B, C, H, W)
    batch, with a (K, C, kh, kw) bank of odd kernel extents:

        out[k, i, j] = bias[k] + sum_{c,u,v} xpad[c, i + u, j + v] * weights[k, c, u, v]

    with xpad the input zero-padded by (kh - 1) / 2 rows and (kw - 1) / 2
    columns on each side.  A batch is one GEMM; its (B, K, H, W) result is
    a view of (K, B, H, W) memory.  ShapeError for mismatched arguments."""
    x = np.asarray(x, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    b = np.ascontiguousarray(bias, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ShapeError(f"conv2d input must be C x H x W or B x C x H x W, got {x.ndim}-D shape {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d weights must be K x C x kh x kw, got {w.ndim}-D shape {w.shape}")
    k, c, kh, kw = w.shape
    if x.shape[-3] != c:
        raise ShapeError(f"input has {x.shape[-3]} channels but weights expect {c}")
    if b.shape != (k,):
        raise ShapeError(f"bias has length {b.size} but there are {k} filters")
    out = np.matmul(w.reshape(k, c * kh * kw), im2col(x, kh, kw))
    out += b[:, None]
    if x.ndim == 3:
        return out.reshape(k, *x.shape[1:])
    return out.reshape(k, x.shape[0], *x.shape[2:]).swapaxes(0, 1)


def encode(model, x, zero_bias=False):
    """ReLU(conv2d(x, W_e) + b_e) of a map or a batch, with b_e pinned to
    zero when zero_bias."""
    b = np.zeros(model.n_filters) if zero_bias else model.b_e
    return np.maximum(conv2d(x, model.w_e, b), 0.0)


def sgd_step(model, grads, lr):
    """Plain in-place stochastic gradient step, no momentum or decay:
    ``w_e -= lr * dw_e``, and so for the biases; ``grads`` is left as it
    was.  Every gradient must have its parameter's shape (ShapeError before
    any parameter moves)."""
    for name, grad, param in (("weight", grads.dw_e, model.w_e), ("encoder bias", grads.db_e, model.b_e),
                              ("decoder bias", grads.db_d, model.b_d)):
        if np.shape(grad) != param.shape:
            raise ShapeError(f"{name} gradient shape {np.shape(grad)} != {param.shape}")
    model.w_e -= lr * grads.dw_e
    model.b_e -= lr * grads.db_e
    model.b_d -= lr * grads.db_d
    return model


def col2im(cols, shape, kh, kw):
    """Adjoint of :func:`im2col`: the (C*kh*kw, B*H*W) matrix ``cols``
    folded into a fresh map of ``shape``, (C, H, W) or (B, C, H, W)."""
    b, c, h, w = shape if len(shape) == 4 else (1, *shape)
    return ops._fold(np.reshape(cols, (c, kh, kw, b, h, w)), np.empty((b, c, h, w))).reshape(shape)


def conv2d_weight_grad(x, dout, kh, kw):
    """dL/dW of :func:`conv2d` at the input x, given dL/dout: the (K, C, kh,
    kw) GEMM dout im2col(x)^T, summed over a batch."""
    d = by_channel(dout)
    return np.matmul(d, im2col(x, kh, kw).T).reshape(len(d), x.shape[-3], kh, kw)


def conv2d_input_grad(dout, weights):
    """dL/dx of :func:`conv2d` with ``weights``, given dL/dout: the
    transposed convolution, W^T dout folded by :func:`col2im`."""
    k, c, kh, kw = weights.shape
    shape = (c, *dout.shape[1:]) if dout.ndim == 3 else (len(dout), c, *dout.shape[2:])
    return col2im(weights.reshape(k, -1).T @ by_channel(dout), shape, kh, kw)
