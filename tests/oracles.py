"""Shared independent oracles for the test suite."""

import numpy as np


def central_diff_grad(f, arr, eps=1e-6):
    """Central finite-difference gradient of scalar f w.r.t. every entry of
    ``arr`` (perturbed in place, restored afterwards)."""
    grad = np.zeros_like(arr, dtype=np.float64)
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


def max_rel_error(analytic, numeric, guard=1e-8):
    """max over coordinates of |a - n| / max(|a|, |n|, guard)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), guard)
    return float((np.abs(a - n) / denom).max())


def finite_newton_svm(x, y, n_classes, lam, max_steps=50):
    """(W, b) minimizing the one-vs-rest squared-hinge objective
    sum_c [lam ||w_c||^2 + sum_i max(0, 1 - t_ic (w_c . x_i + b_c))^2],
    t_ic = +1 where y_i == c and -1 otherwise, by the finite Newton method
    (Keerthi & DeCoste, "A modified finite Newton method for fast solution
    of large scale linear SVMs", JMLR 6, 2005).

    Each w_c lies in the row space of the centred features
    Xc = X - 1 mu^T = U S V^T, so a class solves for r = rank(Xc) whitened
    coordinates u, w_c = V (u / sqrt(lam + s^2)), with the scores Z u + b'
    of Z = U S / sqrt(lam + s^2) and the per-coordinate regularizer
    lam / (lam + s^2); b' = b_c + w_c . mu.  On the active set A of
    samples with a positive hinge the objective is quadratic, and its
    minimizer solves (diag(lam_k) + Z_A^T Z_A) u + Z_A^T 1 b' = Z_A^T t_A
    with the bias row 1^T Z_A u + |A| b' = 1^T t_A.  A Newton step moves to
    that minimizer, halved until the objective does not rise; the solve
    ends when the active set at the new point is the one it was solved on,
    where the gradient is exactly zero.  Raises AssertionError when a class
    does not settle within ``max_steps`` steps.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    mu = x.mean(axis=0)
    u_, s, vt = np.linalg.svd(x - mu, full_matrices=False)
    keep = s * s > n * np.finfo(np.float64).eps * s[0] * s[0]
    u_, s, vt = u_[:, keep], s[keep], vt[keep]
    scale = 1.0 / np.sqrt(lam + s * s)
    zb = np.hstack([u_ * (s * scale), np.ones((n, 1))])
    reg = np.append(lam * scale * scale, 0.0)

    def value(beta, t):
        hinge = np.maximum(0.0, 1.0 - t * (zb @ beta))
        return float(reg @ (beta * beta) + hinge @ hinge)

    weights, biases = np.zeros((n_classes, x.shape[1])), np.zeros(n_classes)
    for c in range(n_classes):
        t = np.where(np.asarray(y) == c, 1.0, -1.0)
        beta = np.zeros(zb.shape[1])
        active = t * (zb @ beta) < 1.0
        for _ in range(max_steps):
            za = zb[active]
            target = np.linalg.solve(np.diag(reg) + za.T @ za, za.T @ t[active])
            f, step = value(beta, t), 1.0
            while value(beta + step * (target - beta), t) > f and step > 1e-12:
                step *= 0.5
            beta = beta + step * (target - beta)
            settled = t * (zb @ beta) < 1.0
            if step == 1.0 and np.array_equal(settled, active):
                break
            active = settled
        else:
            raise AssertionError(f"finite Newton did not settle class {c} in {max_steps} steps")
        weights[c] = (beta[:-1] * scale) @ vt
        biases[c] = beta[-1] - weights[c] @ mu
    return weights, biases
