"""One-vs-rest linear SVM with a differentiable quadratic hinge loss,
minimized by limited-memory BFGS with Armijo backtracking.

The objective over class weight rows w_c and biases b_c is

    sum_c [ lam * ||w_c||^2 + sum_i max(0, 1 - t_ic * (w_c . x_i + b_c))^2 ]

with t_ic = +1 when y_i == c and -1 otherwise.  Biases are not regularized
and the data term is not normalized by n.  The squared hinge is
continuously differentiable, so plain gradient-based minimization applies.

L-BFGS runs the two-loop recursion in Gram space: the newest m curvature
pairs sit in one preallocated (2m, N) array beside the (2m, 2m) Gram matrix
of its rows, and the recursion itself is scalar work on 2m + 1
coefficients.  An iteration reads the array with three BLAS matrix-vector
products: two against the new s and gradient when a pair is stored, one to
form the direction.  The history holds 2·m·N floats, as m separate pairs
would: at m = 10, 6.5 MB for 10 classes over 4096 features and 64 MB for
2 classes over 200704.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass
class SvmModel:
    """Per-class weight rows, biases, and the ordered class-name table."""

    weights: np.ndarray  # (n_classes, D)
    biases: np.ndarray  # (n_classes,)
    class_names: list

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.biases = np.ascontiguousarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be n_classes x D, got shape {self.weights.shape}")
        n_classes, d = self.weights.shape
        if n_classes < 2:
            raise ShapeError(f"need at least 2 classes, got {n_classes}")
        if d < 1:
            raise ShapeError("feature dimension must be >= 1")
        if self.biases.shape != (n_classes,):
            raise ShapeError(f"biases have length {self.biases.size}, expected {n_classes}")
        if len(self.class_names) != n_classes:
            raise ShapeError(f"class table has {len(self.class_names)} entries, expected {n_classes}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("model parameters contain non-finite values")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


@dataclass
class LbfgsConfig:
    memory: int = 10
    initial_step: float = 0.1
    armijo_c1: float = 1e-4
    backtrack_factor: float = 0.5
    max_iters: int = 500
    grad_tol: float = 1e-6
    rel_loss_tol: float = 1e-9

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")
        if self.initial_step <= 0:
            raise ValueError(f"initial_step must be > 0, got {self.initial_step}")
        if not 0.0 < self.armijo_c1 < 1.0:
            raise ValueError(f"armijo_c1 must be in (0, 1), got {self.armijo_c1}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(f"backtrack_factor must be in (0, 1), got {self.backtrack_factor}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol <= 0 or self.rel_loss_tol <= 0:
            raise ValueError("grad_tol and rel_loss_tol must be > 0")


@dataclass
class SvmTrainConfig:
    lam: float = 1.0
    lbfgs: LbfgsConfig = field(default_factory=LbfgsConfig)

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"regularization must be >= 0, got {self.lam}")


@dataclass
class LbfgsResult:
    x: np.ndarray
    value: float
    iterations: int
    reason: str


def _check_data(weights, biases, x, y):
    n_classes, d = weights.shape
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"features must be n x {d}, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
    if x.shape[0] < 1:
        raise ShapeError("need at least one sample")
    if y.min() < 0 or y.max() >= n_classes:
        bad = int(y[(y < 0) | (y >= n_classes)][0])
        raise ShapeError(f"label {bad} outside [0, {n_classes})")


def squared_hinge_objective(weights, biases, x, y, lam):
    """Value and gradients of the regularized squared-hinge objective.

    Returns (value, dW, db).  Gradient of an active margin term
    (1 - t*s > 0) w.r.t. w_c is -2 * t * x * (1 - t*s); the regularizer adds
    2*lam*w_c.  Inactive terms contribute nothing, and the transition is
    smooth because the hinge is squared.
    """
    w = np.asarray(weights, dtype=np.float64)
    b = np.asarray(biases, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not np.issubdtype(y.dtype, np.integer):
        y = y.astype(np.int64)
    _check_data(w, b, x, y)
    n = x.shape[0]
    n_classes = w.shape[0]

    scores = x @ w.T + b  # (n, n_classes)
    t = np.full((n, n_classes), -1.0)
    t[np.arange(n), y] = 1.0
    active = np.maximum(0.0, 1.0 - t * scores)  # (n, n_classes)

    value = lam * float((w * w).sum()) + float((active * active).sum())
    coeff = t * active  # zero wherever the hinge is inactive
    dw = 2.0 * lam * w - 2.0 * (coeff.T @ x)
    db = -2.0 * coeff.sum(axis=0)
    return value, dw, db


class _CurvatureHistory:
    """The newest ``memory`` curvature pairs of an L-BFGS solve.

    ``rows`` is a (2m, N) ring written in place: slot k keeps s in row k and
    y in row m + k; rows of slots not yet filled stay zero.  ``gram`` is
    rows @ rows.T and ``hg`` is rows @ g for the newest gradient g.
    """

    def __init__(self, memory: int, size: int):
        self.memory = memory
        self.rows = np.zeros((2 * memory, size))
        self.gram = np.zeros((2 * memory, 2 * memory))
        self.hg = np.zeros(2 * memory)
        self.sy = np.zeros(memory)  # s.y of each slot, as tested on acceptance
        self.accepted = 0  # the newest pair sits in slot (accepted - 1) % memory

    def push(self, s, y, g_new) -> None:
        """Record a step: s = x_new - x, y = g_new - g.  The pair overwrites
        the oldest one unless s.y <= 1e-10; a discarded pair leaves rows and
        Gram matrix untouched.  ``hg`` moves to g_new either way."""
        sy = float(s @ y)
        if sy <= 1e-10:
            if self.accepted:
                self.hg = self.rows @ g_new
            return
        m, k = self.memory, self.accepted % self.memory
        self.rows[k] = s
        self.rows[m + k] = y
        self.sy[k] = sy
        hg_old, self.hg = self.hg, self.rows @ g_new
        s_dots = self.rows @ s
        # every other row is unchanged, so its dot with y = g_new - g is the
        # change of its dot with the gradient; the new rows were not there
        y_dots = self.hg - hg_old
        y_dots[k] = s_dots[m + k]
        y_dots[m + k] = float(y @ y)
        self.gram[k] = self.gram[:, k] = s_dots
        self.gram[m + k] = self.gram[:, m + k] = y_dots
        self.accepted += 1

    def direction(self, g):
        """-H.g for the newest gradient g by the two-loop recursion on
        coefficients: q = coef[:2m] @ rows + coef[2m] * g throughout, so each
        dot product of q with a row is read off ``gram`` and ``hg``."""
        if not self.accepted:
            return -g
        m = self.memory
        dots = np.column_stack((self.gram, self.hg))  # row r: r . rows, then r . g
        coef = np.zeros(2 * m + 1)
        coef[-1] = 1.0
        newest = (self.accepted - 1) % m
        slots = [(newest - i) % m for i in range(min(self.accepted, m))]  # newest first
        alphas = []
        for k in slots:
            a = float(dots[k] @ coef) / self.sy[k]
            coef[m + k] -= a
            alphas.append(a)
        coef *= self.sy[newest] / self.gram[m + newest, m + newest]
        for k, a in zip(reversed(slots), reversed(alphas)):
            beta = float(dots[m + k] @ coef) / self.sy[k]
            coef[k] += a - beta
        d = coef[:-1] @ self.rows
        d += coef[-1] * g
        return np.negative(d, out=d)


def lbfgs_minimize(objective, x0, config: LbfgsConfig | None = None, callback=None) -> LbfgsResult:
    """Minimize a smooth function with L-BFGS.

    ``objective(x)`` returns (value, gradient).  The direction is the
    two-loop recursion (Liu & Nocedal, Math. Prog. 1989) in its vector-free
    form (Chen, Wang & Zhou, NIPS 2014), run on the Gram matrix of the
    newest ``memory`` curvature pairs (see :class:`_CurvatureHistory`).
    The inverse-Hessian seed is gamma = (s.y)/(y.y) from the newest pair;
    pairs with s.y <= 1e-10 are discarded.  The Armijo backtracking
    line search starts from ``initial_step`` on the first iteration and from
    the unit quasi-Newton step afterwards.  Termination reports one of
    "grad_tol", "rel_loss_tol", "max_iters" or "line_search_failed".  The
    point returned is always the last accepted one, which is also the best
    seen: an accepted step never increases the value.

    ``callback``, if given, is called as callback(iteration, x, value) after
    every accepted step; the ``x`` it receives is never mutated afterwards.
    """
    config = config or LbfgsConfig()
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = objective(x)
    g = np.asarray(g, dtype=np.float64)
    if not (np.isfinite(f) and np.isfinite(g).all()):
        raise ValueError("objective is not finite at the starting point")

    if np.abs(g).max() < config.grad_tol:
        return LbfgsResult(x=x, value=float(f), iterations=0, reason="grad_tol")

    history = _CurvatureHistory(config.memory, x.size)
    for iteration in range(1, config.max_iters + 1):
        d = history.direction(g)
        slope = float(g @ d)
        if slope >= 0.0:
            d = -g
            slope = -float(g @ g)

        step = config.initial_step if iteration == 1 else 1.0
        accepted = False
        for _ in range(51):
            x_new = x + step * d
            f_new, g_new = objective(x_new)
            if np.isfinite(f_new) and f_new <= f + config.armijo_c1 * step * slope:
                accepted = True
                break
            step *= config.backtrack_factor
        if not accepted:
            return LbfgsResult(x=x, value=float(f), iterations=iteration - 1, reason="line_search_failed")

        g_new = np.asarray(g_new, dtype=np.float64)
        history.push(x_new - x, g_new - g, g_new)

        rel_change = abs(f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if callback is not None:
            callback(iteration, x, float(f))
        if np.abs(g).max() < config.grad_tol:
            return LbfgsResult(x=x, value=float(f), iterations=iteration, reason="grad_tol")
        if rel_change < config.rel_loss_tol:
            return LbfgsResult(x=x, value=float(f), iterations=iteration, reason="rel_loss_tol")
    return LbfgsResult(x=x, value=float(f), iterations=config.max_iters, reason="max_iters")


def train_svm(x, y, n_classes, config: SvmTrainConfig | None = None, class_names=None) -> SvmModel:
    """Fit the one-vs-rest squared-hinge SVM from zero initialization.

    The objective is convex, so the zero start makes training deterministic
    for given inputs.  Warns when a class has no training sample, and when
    L-BFGS stops on "max_iters" or "line_search_failed" without converging.
    """
    config = config or SvmTrainConfig()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not np.issubdtype(y.dtype, np.integer):
        y = y.astype(np.int64)
    if n_classes < 2:
        raise ShapeError(f"need at least 2 classes, got {n_classes}")
    if x.ndim != 2:
        raise ShapeError(f"features must be a n x D matrix, got shape {x.shape}")
    if x.shape[0] < n_classes:
        raise ShapeError(f"need at least {n_classes} samples, got {x.shape[0]}")
    present = np.bincount(y, minlength=n_classes) > 0
    if not present.all():
        missing = [int(c) for c in np.flatnonzero(~present)]
        warnings.warn(f"classes {missing} have no training samples", stacklevel=2)
    if class_names is None:
        class_names = [str(c) for c in range(n_classes)]

    d = x.shape[1]

    def objective(theta):
        w = theta[: n_classes * d].reshape(n_classes, d)
        b = theta[n_classes * d :]
        value, dw, db = squared_hinge_objective(w, b, x, y, config.lam)
        return value, np.concatenate([dw.ravel(), db])

    result = lbfgs_minimize(objective, np.zeros(n_classes * d + n_classes), config.lbfgs)
    if result.reason in ("max_iters", "line_search_failed"):
        warnings.warn(f"L-BFGS stopped on {result.reason} after {result.iterations} iterations "
                      "without converging", stacklevel=2)
    return SvmModel(
        weights=result.x[: n_classes * d].reshape(n_classes, d),
        biases=result.x[n_classes * d :],
        class_names=list(class_names),
    )


def decision_scores(model: SvmModel, x) -> np.ndarray:
    """Per-class scores w_c . x + b_c for a (n, D) batch or a single vector."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.weights.shape[1]:
        raise ShapeError(f"feature dimension {x.shape[1]} != model dimension {model.weights.shape[1]}")
    scores = x @ model.weights.T + model.biases
    return scores[0] if single else scores


def predict(model: SvmModel, x) -> int:
    """Class index with the highest score; ties go to the lowest index."""
    scores = decision_scores(model, x)
    if scores.ndim != 1:
        raise ShapeError("predict takes a single feature vector; use predict_many for batches")
    return int(np.argmax(scores))


def predict_many(model: SvmModel, x) -> np.ndarray:
    """Row-wise argmax predictions for a (n, D) feature matrix."""
    scores = decision_scores(model, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return np.argmax(scores, axis=1)


def top1_accuracy(predictions, labels) -> float:
    """Fraction of exact label matches."""
    p = np.asarray(predictions)
    t = np.asarray(labels)
    if p.shape != t.shape or p.ndim != 1:
        raise ShapeError(f"predictions shape {p.shape} != labels shape {t.shape}")
    if p.size == 0:
        raise ShapeError("cannot score an empty prediction list")
    return float((p == t).mean())
