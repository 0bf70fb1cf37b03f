"""Unsupervised feature learning with a zero-bias, tied-weight convolutional
auto-encoder, plus a quadratic-hinge linear SVM trained by L-BFGS.

Submodules:
    ops         dense float64 tensor kernels (im2col, folds, pooling, flips)
    cae         auto-encoder model, backprop, SGD trainer, feature extraction
    svm         one-vs-rest squared-hinge SVM and the L-BFGS minimizer
    tensorfile  binary multi-tensor container (ZTEN format)
    dataset     manifests and the synthetic feature-map generator
    pipeline    checkpoints, end-to-end runner, filter-size sweep
    gradcheck   finite-difference verification harness
    cli         command-line front end

The package root intentionally imports nothing heavy; import the submodule
you need (``from zbcae import cae``).
"""

__version__ = "0.1.0"
