"""One-vs-rest linear SVM with a differentiable quadratic hinge loss,
minimized by limited-memory BFGS with Armijo backtracking.

The objective over class weight rows w_c and biases b_c is

    sum_c [ lam * ||w_c||^2 + sum_i max(0, 1 - t_ic * (w_c . x_i + b_c))^2 ]

with t_ic = +1 when y_i == c and -1 otherwise.  Biases are not regularized
and the data term is not normalized by n.  The squared hinge is
continuously differentiable, so plain gradient-based minimization applies.

``train_svm`` does not run L-BFGS on (W, b) directly: on features with a
common offset, such as rectified CAE features, that problem is so badly
conditioned that the default 500 iterations end far from the optimum.  It
changes variables once instead.  With mu the feature mean and
Xc = X - 1 mu^T (never formed: its Gram matrix is X X^T minus its row and
column means when n <= D, else X^T X - n mu mu^T), write
Xc = U S V^T, dropping squared singular values below n * eps * max.
Writing b = b' - W mu, the scores are Xc W^T + b', and at the optimum every
w_c lies in the row space of Xc (the representer theorem; Chapelle,
"Training a SVM in the primal", Neural Comp. 2007).  So the solve runs on

    Z = U S (lam + S^2)^(-1/2),  regularizer weight lam / (lam + s_k^2) per
    coordinate,  bias b' = c / sqrt(n),

the same squared-hinge objective in r = rank(Xc) coordinates per class, in
which the Hessian at the zero start is 2I: L-BFGS preconditioned by
(lam I + Xc^T Xc)^(-1) (Nocedal & Wright, Numerical Optimization, 7.2).
The solution u, c maps back as W = (u (lam + S^2)^(-1/2) / S) U^T X
= (u / S^2) Z^T X (U^T 1 = 0 lets X stand in for Xc) and
b = c / sqrt(n) - W mu.  ``grad_tol``
bounds the infinity norm of the gradient in these whitened coordinates;
``rel_loss_tol`` and ``max_iters`` mean what they say, as the objective
value is the same in both coordinate systems.

L-BFGS runs the two-loop recursion in Gram space: the newest m curvature
pairs sit in one preallocated (2m, N) array beside the (2m, 2m) Gram matrix
of its rows, and the recursion itself is scalar work on 2m + 1
coefficients.  An iteration reads the array with three BLAS matrix-vector
products: two against the new s and gradient when a pair is stored, one to
form the direction.  In ``train_svm`` N = C * (r + 1), so the history holds
2m * C * (r + 1) floats: at m = 10, 1.6 MB for 10 classes over 1000
samples and 2.6 KB for 2 classes over 8, where the same history over all
D + 1 parameters took 6.5 MB and 64 MB.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, check_fields


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
    memory: int = field(default=10, metadata={">=": 1})
    initial_step: float = field(default=0.1, metadata={">": 0})
    armijo_c1: float = field(default=1e-4, metadata={"in": (0, 1)})
    backtrack_factor: float = field(default=0.5, metadata={"in": (0, 1)})
    max_iters: int = field(default=500, metadata={">=": 1})
    grad_tol: float = field(default=1e-6, metadata={">": 0})
    rel_loss_tol: float = field(default=1e-9, metadata={">": 0})

    def __post_init__(self):
        check_fields(self)


@dataclass
class SvmTrainConfig:
    lam: float = 1.0
    lbfgs: LbfgsConfig = field(default_factory=LbfgsConfig)

    def __post_init__(self):
        check_fields(self)
        if self.lam < 0:
            raise ValueError(f"regularization must be >= 0, got {self.lam}")


@dataclass
class LbfgsResult:
    x: np.ndarray
    value: float
    iterations: int
    reason: str


def _check_data(weights, biases, x, y):
    """Check the objective's shapes and labels; returns y as int64."""
    n_classes, d = weights.shape
    if biases.shape != (n_classes,):
        raise ShapeError(f"biases must have shape ({n_classes},), got {biases.shape}")
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"features must be n x {d}, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
    if x.shape[0] < 1:
        raise ShapeError("need at least one sample")
    return _class_indices(y, n_classes)


def _class_indices(y, n_classes):
    """Labels ``y`` as int64; any that is not a class index in
    0..n_classes-1 (negative, fractional, non-finite or too large) raises
    ShapeError."""
    bad = ~((y >= 0) & (y < n_classes) & (y == np.floor(y)))
    if bad.any():
        raise ShapeError(f"label {y[bad][0]} is not a class index in 0..{n_classes - 1}")
    return y.astype(np.int64, copy=False)


def squared_hinge_objective(weights, biases, x, y, lam):
    """Value and gradients of the regularized squared-hinge objective.

    Returns (value, dW, db).  Gradient of an active margin term
    (1 - t*s > 0) w.r.t. w_c is -2 * t * x * (1 - t*s); the regularizer adds
    2*lam*w_c.  Inactive terms contribute nothing, and the transition is
    smooth because the hinge is squared.  ``lam`` is a scalar or one weight
    per feature coordinate, shared by every class.
    """
    w = np.asarray(weights, dtype=np.float64)
    b = np.asarray(biases, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = _check_data(w, b, x, np.asarray(y))
    n = x.shape[0]
    n_classes = w.shape[0]

    # (n, n_classes); OpenBLAS forms this few-column product about twice as fast as x @ w.T
    scores = (w @ x.T).T + b
    t = np.full((n, n_classes), -1.0)
    t[np.arange(n), y] = 1.0
    active = np.maximum(0.0, 1.0 - t * scores)  # (n, n_classes)

    value = float((lam * (w * w)).sum()) + float((active * active).sum())
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


def lbfgs_minimize(objective, x0, config: LbfgsConfig | None = None) -> LbfgsResult:
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
        if np.abs(g).max() < config.grad_tol:
            return LbfgsResult(x=x, value=float(f), iterations=iteration, reason="grad_tol")
        if rel_change < config.rel_loss_tol:
            return LbfgsResult(x=x, value=float(f), iterations=iteration, reason="rel_loss_tol")
    return LbfgsResult(x=x, value=float(f), iterations=config.max_iters, reason="max_iters")


def _check_training_data(x, y, n_classes):
    """Validate ``train_svm``'s inputs once; returns (x, y) as float64 and
    int64.  Malformed shapes and labels that are not class indices
    (negative, fractional, non-finite or >= ``n_classes``) raise ShapeError;
    :func:`_principal_scores` checks the features."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if n_classes < 2:
        raise ShapeError(f"need at least 2 classes, got {n_classes}")
    if x.ndim != 2:
        raise ShapeError(f"features must be a n x D matrix, got shape {x.shape}")
    if x.shape[1] < 1:
        raise ShapeError("feature dimension must be >= 1")
    if x.shape[0] < n_classes:
        raise ShapeError(f"need at least {n_classes} samples, got {x.shape[0]}")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
    return x, _class_indices(y, n_classes)


def _principal_scores(x, mu):
    """Squared singular values s2 and scores P = U S (n x r) of the centred
    features Xc = X - 1 mu^T = U S V^T, from an eigendecomposition of the
    smaller Gram matrix formed without copying X: the n x n X X^T minus its
    column and row means when n <= D (P = U S), else the D x D
    X^T X - n mu mu^T (P = X V - 1 mu^T V).  Squared singular values below
    n * eps * max are dropped as rounding.  ShapeError when the Gram matrix
    is not finite: X holds a non-finite value or its products overflow.
    This is the features' one finiteness check, on at most n x n values."""
    n, d = x.shape
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite X gives a non-finite Gram matrix
        if n <= d:
            gram = x @ x.T
            gram -= gram.mean(axis=0)
            gram -= gram.mean(axis=1)[:, None]
        else:
            gram = x.T @ x
            gram -= n * np.outer(mu, mu)
    if not np.isfinite(gram).all():
        raise ShapeError("features contain non-finite values, or their Gram matrix overflows")
    s2, basis = np.linalg.eigh(gram)
    # eigh sorts ascending, so the kept eigenpairs are a suffix
    first = np.searchsorted(s2, n * np.finfo(np.float64).eps * s2[-1], side="right")
    s2, basis = s2[first:], basis[:, first:]
    return s2, basis * np.sqrt(s2) if n <= d else x @ basis - mu @ basis


def train_svm(x, y, n_classes, config: SvmTrainConfig | None = None, class_names=None) -> SvmModel:
    """Fit the one-vs-rest squared-hinge SVM from zero initialization.

    L-BFGS runs in the centred, whitened row space described in the module
    docstring and the solution is mapped back to (W, b).  The objective is
    convex and the start is zero, so training is deterministic for given
    inputs.  Inputs are validated before any decomposition (ShapeError).
    Warns when a class has no training sample, when the centred features
    have rank 0 (constant features: W = 0, so every sample gets the same
    class), and when L-BFGS stops on "max_iters" or "line_search_failed"
    without converging.
    """
    config = config or SvmTrainConfig()
    x, y = _check_training_data(x, y, n_classes)
    present = np.bincount(y, minlength=n_classes) > 0
    if not present.all():
        missing = [int(c) for c in np.flatnonzero(~present)]
        warnings.warn(f"classes {missing} have no training samples", stacklevel=2)
    if class_names is None:
        class_names = [str(c) for c in range(n_classes)]

    n = x.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):  # _principal_scores rejects what makes mu non-finite
        mu = x.mean(axis=0)
    s2, pcs = _principal_scores(x, mu)
    if s2.size == 0:
        warnings.warn("centred features have rank 0: every feature is constant, so the classifier fits "
                      "the biases alone and gives every sample the same class", stacklevel=2)
    scale = 1.0 / np.sqrt(config.lam + s2)
    z = pcs * scale
    lam = config.lam * scale * scale  # lam / (lam + s2) per coordinate
    root_n = np.sqrt(n)
    size = n_classes * s2.size

    def objective(theta):
        value, du, db = squared_hinge_objective(theta[:size].reshape(n_classes, -1), theta[size:] / root_n,
                                                z, y, lam)
        return value, np.concatenate([du.ravel(), db / root_n])

    result = lbfgs_minimize(objective, np.zeros(size + n_classes), config.lbfgs)
    if result.reason in ("max_iters", "line_search_failed"):
        warnings.warn(f"L-BFGS stopped on {result.reason} after {result.iterations} iterations "
                      "without converging", stacklevel=2)
    # W = (u scale / S) U^T Xc = (u / s2) Z^T X, since U^T 1 = 0
    weights = (result.x[:size].reshape(n_classes, -1) / s2) @ z.T @ x
    return SvmModel(
        weights=weights,
        biases=result.x[size:] / root_n - weights @ mu,
        class_names=list(class_names),
    )


def predict_many(model: SvmModel, x) -> np.ndarray:
    """Row-wise argmax of the per-class scores x W^T + b of an (n, D)
    feature matrix; ties go to the lowest class index.  Non-finite features
    raise ShapeError, as in :func:`train_svm`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[1]:
        raise ShapeError(f"features of shape {x.shape} do not match the model dimension {model.weights.shape[1]}")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite feature gives a non-finite score
        scores = x @ model.weights.T + model.biases
    if not np.isfinite(scores).all():
        raise ShapeError("features contain non-finite values, or their scores overflow")
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
