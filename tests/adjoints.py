"""The adjoints of the same-size convolution as whole-array functions, for
tests, built from what the CAE training step runs: the fold of a patch
matrix back into a map (``zbcae.ops._fold``) and the step's two GEMMs,
W^T dout for the transposed convolution and dout cols^T for the weight
gradient.  Arguments are not checked."""

import numpy as np

from zbcae import ops


def by_channel(maps):
    """(K, H, W) or (B, K, H, W) maps as a (K, B*H*W) matrix whose columns
    follow ``ops.im2col``'s order."""
    k = maps.shape[-3]
    return maps.reshape(k, -1) if maps.ndim == 3 else maps.swapaxes(0, 1).reshape(k, -1)


def col2im(cols, shape, kh, kw):
    """Adjoint of ``ops.im2col``: the (C*kh*kw, B*H*W) matrix ``cols``
    folded into a fresh map of ``shape``, (C, H, W) or (B, C, H, W)."""
    b, c, h, w = shape if len(shape) == 4 else (1, *shape)
    return ops._fold(np.reshape(cols, (c, kh, kw, b, h, w)), np.empty((b, c, h, w))).reshape(shape)


def conv2d_weight_grad(x, dout, kh, kw):
    """dL/dW of ``ops.conv2d`` at the input x, given dL/dout: the (K, C, kh,
    kw) GEMM dout im2col(x)^T, summed over a batch."""
    d = by_channel(dout)
    return np.matmul(d, ops.im2col(x, kh, kw).T).reshape(len(d), x.shape[-3], kh, kw)


def conv2d_input_grad(dout, weights):
    """dL/dx of ``ops.conv2d`` with ``weights``, given dL/dout: the
    transposed convolution, W^T dout folded by :func:`col2im`."""
    k, c, kh, kw = weights.shape
    shape = (c, *dout.shape[1:]) if dout.ndim == 3 else (len(dout), c, *dout.shape[2:])
    return col2im(weights.reshape(k, -1).T @ by_channel(dout), shape, kh, kw)
