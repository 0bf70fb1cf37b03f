"""Finite-difference verification harness.

Checks the analytic auto-encoder and SVM gradients against central finite
differences on small seed-fixed instances and reports the maximum relative
error per parameter group, using rel = |a - n| / max(|a|, |n|, 1e-8).
"""

from __future__ import annotations

import numpy as np

from .cae import BIAS_TRAIN_THEN_ZERO, init_model, loss_gradients, reconstruction_loss
from .svm import squared_hinge_objective

EPS = 1e-6
GUARD = 1e-8

# Problem sizes: small enough for a central difference over every parameter.
CAE_FILTERS, CAE_CHANNELS, CAE_EXTENT, CAE_BATCH = 3, 2, 5, 2
SVM_SAMPLES, SVM_FEATURES, SVM_CLASSES = 12, 5, 3


def _central_diff(f, arr, eps=EPS):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        up = f()
        arr[idx] = orig - eps
        dn = f()
        arr[idx] = orig
        grad[idx] = (up - dn) / (2.0 * eps)
    return grad


def _max_rel(analytic, numeric) -> float:
    a = np.asarray(analytic).ravel()
    n = np.asarray(numeric).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), GUARD)
    return float((np.abs(a - n) / denom).max()) if a.size else 0.0


def gradcheck_report(seed: int = 0) -> dict:
    """Max relative errors for the four parameter groups, as a dict with
    keys cae_weights, cae_biases, svm_weights, svm_biases."""
    rng = np.random.default_rng(seed)

    model = init_model(CAE_FILTERS, CAE_CHANNELS, 3, seed=seed)
    model.b_e = rng.normal(0.0, 0.3, size=CAE_FILTERS)
    model.b_d = rng.normal(0.0, 0.3, size=CAE_CHANNELS)
    batch = np.stack([rng.normal(size=(CAE_CHANNELS, CAE_EXTENT, CAE_EXTENT)) for _ in range(CAE_BATCH)])
    grads = loss_gradients(model, batch, BIAS_TRAIN_THEN_ZERO)

    def cae_loss():
        return reconstruction_loss(model, batch, BIAS_TRAIN_THEN_ZERO)

    cae_weights = _max_rel(grads.dw_e, _central_diff(cae_loss, model.w_e))
    cae_biases = max(
        _max_rel(grads.db_e, _central_diff(cae_loss, model.b_e)),
        _max_rel(grads.db_d, _central_diff(cae_loss, model.b_d)),
    )

    x = rng.normal(size=(SVM_SAMPLES, SVM_FEATURES))
    y = rng.permutation(np.arange(SVM_SAMPLES) % SVM_CLASSES)
    w = rng.normal(0.0, 0.5, size=(SVM_CLASSES, SVM_FEATURES))
    b = rng.normal(0.0, 0.5, size=SVM_CLASSES)
    _, dw, db = squared_hinge_objective(w, b, x, y, lam=1.0)

    def svm_loss():
        return squared_hinge_objective(w, b, x, y, lam=1.0)[0]

    svm_weights = _max_rel(dw, _central_diff(svm_loss, w))
    svm_biases = _max_rel(db, _central_diff(svm_loss, b))

    return {
        "cae_weights": cae_weights,
        "cae_biases": cae_biases,
        "svm_weights": svm_weights,
        "svm_biases": svm_biases,
    }
