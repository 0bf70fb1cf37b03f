"""Classifier tests: squared-hinge objective against hand calculations and
finite differences, L-BFGS on problems with known minima, its Gram-space
direction against the vector two-loop recursion, the whitened row-space
solve against the primal objective, end-to-end fits on separable data,
against scipy's optimum and against a finite Newton optimum."""

import warnings
from contextlib import nullcontext

import numpy as np
import numpy.testing as npt
import pytest

from oracles import central_diff_grad, finite_newton_svm, max_rel_error
from zbcae.errors import ShapeError
from zbcae.svm import (
    LbfgsConfig,
    SvmModel,
    SvmTrainConfig,
    _CurvatureHistory,
    _principal_scores,
    lbfgs_minimize,
    predict_many,
    squared_hinge_objective,
    top1_accuracy,
    train_svm,
)


class TestSquaredHingeObjective:
    def test_zero_parameters_give_one_per_class_and_sample(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        value, dw, db = squared_hinge_objective(np.zeros((3, 4)), np.zeros(3), x, y, lam=0.0)
        assert value == pytest.approx(3 * 7)

    def test_hand_evaluated_single_sample(self):
        # x=[1], y=0, W=0, b=0, lam=1: both margins are 1, value 2;
        # dw_0 = -2*(+1)*1*1 = -2, dw_1 = -2*(-1)*1*1 = +2
        value, dw, db = squared_hinge_objective(
            np.zeros((2, 1)), np.zeros(2), np.array([[1.0]]), np.array([0]), lam=1.0
        )
        assert value == pytest.approx(2.0)
        npt.assert_allclose(dw, np.array([[-2.0], [2.0]]))
        npt.assert_allclose(db, np.array([-2.0, 2.0]))

    def test_inactive_hinge_gives_zero(self):
        # single feature, two well-separated classes, weights achieving
        # margins >= 1 everywhere, lam=0
        x = np.array([[-2.0], [2.0]])
        y = np.array([0, 1])
        w = np.array([[-1.0], [1.0]])
        value, dw, db = squared_hinge_objective(w, np.zeros(2), x, y, lam=0.0)
        assert value == 0.0
        npt.assert_array_equal(dw, np.zeros((2, 1)))
        npt.assert_array_equal(db, np.zeros(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        for _ in range(4):
            n, d, c = 6, 3, 3
            x = rng.normal(size=(n, d))
            y = rng.integers(0, c, size=n)
            w = rng.normal(size=(c, d))
            b = rng.normal(size=c)
            value, dw, db = squared_hinge_objective(w, b, x, y, lam=1.0)

            def f():
                return squared_hinge_objective(w, b, x, y, lam=1.0)[0]

            assert max_rel_error(dw, central_diff_grad(f, w)) < 1e-6
            assert max_rel_error(db, central_diff_grad(f, b)) < 1e-6

    def test_per_coordinate_lam_matches_finite_differences_and_the_sum(self):
        # a lam array weights each feature coordinate's square, in every class
        rng = np.random.default_rng(59)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        w, b, lam = rng.normal(size=(3, 4)), rng.normal(size=3), rng.uniform(0.1, 2.0, size=4)
        value, dw, db = squared_hinge_objective(w, b, x, y, lam)
        hinge = squared_hinge_objective(w, b, x, y, 0.0)[0]
        assert value == pytest.approx(hinge + float((lam * w * w).sum()), rel=1e-14)

        def f():
            return squared_hinge_objective(w, b, x, y, lam)[0]

        assert max_rel_error(dw, central_diff_grad(f, w)) < 1e-6
        assert max_rel_error(db, central_diff_grad(f, b)) < 1e-6

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)

        def value(w, b):
            return squared_hinge_objective(w, b, x, y, lam=1.0)[0]

        for _ in range(100):
            w1, w2 = rng.normal(size=(2, 3, 4))
            b1, b2 = rng.normal(size=(2, 3))
            mid = value((w1 + w2) / 2, (b1 + b2) / 2)
            assert mid <= 0.5 * value(w1, b1) + 0.5 * value(w2, b2) + 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError, match="label"):
            squared_hinge_objective(np.zeros((2, 1)), np.zeros(2), np.ones((1, 1)), np.array([5]), 1.0)

    @pytest.mark.parametrize("label", [1.7, -1, float("nan")], ids=["fractional", "negative", "nan"])
    def test_label_that_is_not_a_class_index_is_shape_error(self, label):
        # a fractional label is rejected, not truncated to a class index
        with pytest.raises(ShapeError, match="not a class index"):
            squared_hinge_objective(np.zeros((2, 3)), np.zeros(2), np.eye(3), [0, label, 1], 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="features"):
            squared_hinge_objective(np.zeros((2, 3)), np.zeros(2), np.ones((4, 2)), np.zeros(4, dtype=int), 1.0)

    @pytest.mark.parametrize("n_biases", [1, 2, 4])
    def test_bias_count_must_match_classes(self, n_biases):
        # a length-1 vector used to broadcast silently, a length-2 one to fail in numpy
        with pytest.raises(ShapeError, match=r"biases must have shape \(3,\)"):
            squared_hinge_objective(np.zeros((3, 4)), np.zeros(n_biases), np.ones((5, 4)), np.arange(5) % 3, 1.0)


def two_loop_direction(g, pairs):
    """-H.g via the vector two-loop recursion over stored (s, y, rho) pairs,
    newest last (Liu & Nocedal 1989): the reference for the Gram-space
    recursion of ``_CurvatureHistory.direction``."""
    q = g.copy()
    alphas = []
    for s, yv, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * yv
    if pairs:
        s, yv, _ = pairs[-1]
        gamma = float(s @ yv) / float(yv @ yv)
        q *= gamma
    for (s, yv, rho), a in zip(pairs, reversed(alphas)):
        beta = rho * float(yv @ q)
        q += (a - beta) * s
    return -q


def walk(history, rng, g, steps):
    """Push ``steps`` random curvature pairs (s.y > 0) along a gradient path
    starting at ``g``; returns the new gradient and the pairs the reference
    keeps (the newest ``history.memory``)."""
    pairs = []
    n = g.size
    accepted = history.accepted
    for _ in range(steps):
        s = rng.normal(size=n)
        y = s + 0.5 * rng.normal(size=n)  # s.y > 0 with overwhelming probability
        g = g + y
        history.push(s, y, g)
        pairs = (pairs + [(s, y, 1.0 / float(s @ y))])[-history.memory:]
    assert history.accepted == accepted + steps
    return g, pairs


def relative_gap(d, ref):
    return float(np.linalg.norm(d - ref) / np.linalg.norm(ref))


class TestCurvatureHistory:
    @pytest.mark.parametrize("steps", [0, 1, 3, 4, 11], ids=["empty", "one", "partly", "full", "wrapped"])
    def test_direction_matches_two_loop_reference(self, steps):
        rng = np.random.default_rng(60 + steps)
        memory, n = 4, 30
        history = _CurvatureHistory(memory, n)
        g, pairs = walk(history, rng, rng.normal(size=n), steps)
        assert relative_gap(history.direction(g), two_loop_direction(g, pairs)) < 1e-12
        # rows of slots not yet filled stay zero, so they add nothing to any product
        unused = [k for k in range(memory) if k >= steps]
        assert not history.rows[unused].any() and not history.rows[[memory + k for k in unused]].any()

    def test_gram_matrix_holds_the_row_dot_products(self):
        rng = np.random.default_rng(64)
        history = _CurvatureHistory(3, 20)
        g, _ = walk(history, rng, rng.normal(size=20), 8)
        rows = history.rows
        npt.assert_allclose(history.gram, rows @ rows.T, rtol=1e-12, atol=1e-12 * np.abs(rows @ rows.T).max())
        npt.assert_array_equal(history.gram, history.gram.T)
        npt.assert_allclose(history.hg, rows @ g, rtol=1e-12, atol=1e-12 * np.abs(rows @ g).max())

    @pytest.mark.parametrize("bend", ["orthogonal", "negative"])
    @pytest.mark.parametrize("steps", [2, 6], ids=["partly", "wrapped"])
    def test_rejected_pair_leaves_history_untouched(self, steps, bend):
        rng = np.random.default_rng(65 + steps)
        memory, n = 4, 30
        history = _CurvatureHistory(memory, n)
        g, pairs = walk(history, rng, rng.normal(size=n), steps)
        before = (history.rows.copy(), history.gram.copy(), history.sy.copy(), history.accepted)

        s = rng.normal(size=n)
        if bend == "orthogonal":
            v = rng.normal(size=n)
            y = v - (v @ s) / (s @ s) * s  # s.y at rounding level, below 1e-10
        else:
            y = -s
        assert float(s @ y) <= 1e-10
        g = g + y
        history.push(s, y, g)

        npt.assert_array_equal(history.rows, before[0])
        npt.assert_array_equal(history.gram, before[1])
        npt.assert_array_equal(history.sy, before[2])
        assert history.accepted == before[3]
        assert relative_gap(history.direction(g), two_loop_direction(g, pairs)) < 1e-12


class TestLbfgs:
    def test_separable_quadratic_converges_fast(self):
        c = np.array([3.0, -1.0])

        def objective(x):
            return 0.5 * float((x - c) @ (x - c)), x - c

        result = lbfgs_minimize(objective, np.zeros(2))
        assert result.iterations <= 5
        npt.assert_allclose(result.x, c, atol=1e-6)

    def test_stationary_start_returns_immediately(self):
        def objective(x):
            return 0.0, np.zeros_like(x)

        result = lbfgs_minimize(objective, np.array([1.0, 2.0]))
        assert result.iterations == 0
        assert result.reason == "grad_tol"
        npt.assert_array_equal(result.x, np.array([1.0, 2.0]))

    def test_rosenbrock(self):
        def objective(v):
            x, y = v
            f = (1 - x) ** 2 + 100.0 * (y - x * x) ** 2
            g = np.array([-2 * (1 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)])
            return f, g

        result = lbfgs_minimize(objective, np.array([-1.2, 1.0]))
        assert result.value < 1e-8
        npt.assert_allclose(result.x, np.array([1.0, 1.0]), atol=1e-3)

    def test_matches_closed_form_on_random_spd_quadratics(self):
        rng = np.random.default_rng(53)
        for trial in range(5):
            n = 6
            m = rng.normal(size=(n, n))
            a = m @ m.T + n * np.eye(n)
            b = rng.normal(size=n)
            x_star = np.linalg.solve(a, b)

            def objective(x):
                return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

            result = lbfgs_minimize(objective, np.zeros(n))
            assert np.abs(result.x - x_star).max() < 1e-6

    def test_accepted_values_never_increase(self):
        # a solve stopped at max_iters = i returns the i-th accepted point
        rng = np.random.default_rng(54)
        m = rng.normal(size=(4, 4))
        a = m @ m.T + np.eye(4)
        b = rng.normal(size=4)
        x0 = rng.normal(size=4)

        def objective(x):
            return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

        values = [objective(x0)[0]] + [lbfgs_minimize(objective, x0, LbfgsConfig(max_iters=i)).value
                                       for i in range(1, 9)]
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_termination_reason_max_iters(self):
        def objective(x):
            return float(x @ x) * 0.5, x

        result = lbfgs_minimize(
            objective, np.full(3, 100.0), LbfgsConfig(max_iters=1, rel_loss_tol=1e-300, grad_tol=1e-300)
        )
        assert result.reason == "max_iters"
        assert result.iterations == 1

    def test_line_search_failure_returns_last_accepted_point(self):
        # the reported gradient has the wrong sign, so every trial step moves
        # uphill; a mild backtrack factor keeps all 51 trial steps far above
        # rounding, where a step could leave x unchanged and be accepted
        evals = []

        def objective(x):
            evals.append(x.copy())
            return 0.5 * float(x @ x), -x

        x0 = np.array([3.0, -4.0])
        result = lbfgs_minimize(objective, x0, LbfgsConfig(backtrack_factor=0.9))
        assert result.reason == "line_search_failed"
        npt.assert_array_equal(result.x, x0)
        assert result.value == 12.5
        assert result.iterations == 0
        assert len(evals) == 1 + 51

    def test_non_finite_start_raises(self):
        def objective(x):
            return np.inf, x

        with pytest.raises(ValueError, match="finite"):
            lbfgs_minimize(objective, np.zeros(2))


def gaussian_blobs(rng, centers, n_total, sigma=1.0):
    """Seeded blobs; returns (x, y).  The margin oracle below certifies the
    draw is linearly separable before it is used."""
    centers = np.asarray(centers, dtype=float)
    n_classes = len(centers)
    per = [n_total // n_classes] * n_classes
    for i in range(n_total - sum(per)):
        per[i] += 1
    xs, ys = [], []
    for c, (center, count) in enumerate(zip(centers, per)):
        xs.append(center + sigma * rng.normal(size=(count, 2)))
        ys.append(np.full(count, c, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def midpoint_margin_oracle(x, y, centers):
    """True when every point is strictly on its own side of every midpoint
    hyperplane between its class center and each other center, which
    certifies linear separability of the draw."""
    centers = np.asarray(centers, dtype=float)
    for i, (point, label) in enumerate(zip(x, y)):
        for other in range(len(centers)):
            if other == int(label):
                continue
            normal = centers[label] - centers[other]
            mid = (centers[label] + centers[other]) / 2.0
            if float((point - mid) @ normal) <= 0.0:
                return False
    return True


class TestTrainSvm:
    def test_separable_blobs_reach_high_training_accuracy(self):
        rng = np.random.default_rng(55)
        centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
        x, y = gaussian_blobs(rng, centers, n_total=200, sigma=1.0)
        assert midpoint_margin_oracle(x, y, centers)
        model = train_svm(x, y, n_classes=3)
        acc = top1_accuracy(predict_many(model, x), y)
        assert acc >= 0.99

    def test_one_dimensional_two_point_separation(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train_svm(x, y, n_classes=2)
        npt.assert_array_equal(predict_many(model, x), [0, 1])
        # the class-1 score must change sign between the two points
        s_neg = model.weights[1] @ x[0] + model.biases[1]
        s_pos = model.weights[1] @ x[1] + model.biases[1]
        assert s_neg < 0 < s_pos

    def test_default_regularization_is_one(self):
        assert SvmTrainConfig().lam == 1.0

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(56)
        x, y = gaussian_blobs(rng, [(0, 0), (5, 5)], n_total=40)
        a = train_svm(x, y, 2)
        b = train_svm(x, y, 2)
        npt.assert_array_equal(a.weights, b.weights)
        npt.assert_array_equal(a.biases, b.biases)

    def test_missing_class_warns(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        y = np.array([0, 0, 1])
        with pytest.warns(UserWarning, match="no training samples"):
            train_svm(x, y, n_classes=3)

    def test_iteration_cap_warns_with_reason_and_count(self):
        rng = np.random.default_rng(67)
        x, y = gaussian_blobs(rng, [(0, 0), (5, 5)], n_total=40)
        config = SvmTrainConfig(lbfgs=LbfgsConfig(max_iters=1))
        with pytest.warns(UserWarning, match="max_iters after 1 iterations"):
            warned = train_svm(x, y, 2, config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = train_svm(x, y, 2, config)
        npt.assert_array_equal(warned.weights, quiet.weights)
        npt.assert_array_equal(warned.biases, quiet.biases)

    def test_line_search_failure_warns(self, monkeypatch):
        # a value that always rises away from the start makes every trial
        # step of the objective train_svm hands to L-BFGS fail the Armijo test
        from zbcae import svm

        solve = svm.lbfgs_minimize

        def uphill_solve(objective, x0, config=None):
            def uphill(theta):
                value, grad = objective(theta)
                return value + 1e3 * float(np.abs(theta).sum()), grad

            return solve(uphill, x0, config)

        monkeypatch.setattr(svm, "lbfgs_minimize", uphill_solve)
        x = np.array([[-1.0], [1.0]])
        with pytest.warns(UserWarning, match="line_search_failed after 0 iterations"):
            model = train_svm(x, np.array([0, 1]), 2)
        # the last accepted point is the zero start, which maps back to zero
        npt.assert_array_equal(model.weights, np.zeros((2, 1)))
        npt.assert_array_equal(model.biases, np.zeros(2))

    def test_converged_fit_does_not_warn(self):
        rng = np.random.default_rng(56)
        x, y = gaussian_blobs(rng, [(0, 0), (5, 5)], n_total=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_svm(x, y, 2)

    def test_class_names_carried(self):
        x = np.array([[-1.0], [1.0]])
        model = train_svm(x, np.array([0, 1]), 2, class_names=["neg", "pos"])
        assert model.class_names == ["neg", "pos"]

    @pytest.mark.parametrize("label", [-1, 1.7, 3, float("nan")], ids=["negative", "fractional", "too-large", "nan"])
    def test_label_that_is_not_a_class_index_is_shape_error(self, label):
        x = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ShapeError, match="not a class index"):
            train_svm(x, np.array([0, 1, 2, label]), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_shape_error(self, value):
        # a ShapeError, not numpy's LinAlgError: the features are checked
        # before the decomposition sees them
        x = np.arange(8.0).reshape(4, 2)
        x[2, 1] = value
        with pytest.raises(ShapeError, match="non-finite"):
            train_svm(x, np.array([0, 1, 0, 1]), 2)

    @pytest.mark.parametrize("case", ["n-by-n-overflow", "d-by-d-overflow", "inf-and-minus-inf"])
    def test_features_whose_gram_matrix_is_not_finite_are_shape_error(self, case):
        # finite features near 1e307 reached the eigendecomposition as an
        # overflowed Gram matrix (numpy's LinAlgError, after RuntimeWarnings);
        # +inf and -inf in one column make the feature mean warn.  No
        # RuntimeWarning may escape: the suite turns one into an error
        n, d = (4, 6) if case == "n-by-n-overflow" else (6, 2)
        x = np.full((n, d), 1e307) * np.resize([1.0, -1.0], n)[:, None]
        if case == "inf-and-minus-inf":
            x = np.arange(12.0).reshape(6, 2)
            x[1, 1], x[2, 1] = np.inf, -np.inf
        with pytest.raises(ShapeError, match="non-finite values, or their Gram matrix overflows"):
            train_svm(x, np.resize([0, 1], n), 2)

    @pytest.mark.parametrize("value", [0.0, 3.0])
    def test_constant_features_fit_the_biases_alone(self, value):
        # the centred features are zero, so no coordinate is kept and only
        # the biases are solved: 3(1 - b)^2 + 4(1 + b)^2 is least at b = -1/7
        x = np.full((7, 5), value)
        with pytest.warns(UserWarning, match="rank 0"):
            model = train_svm(x, np.array([0, 0, 0, 1, 1, 2, 2]), 3)
        npt.assert_array_equal(model.weights, np.zeros((3, 5)))
        npt.assert_allclose(model.biases, [-1 / 7, -3 / 7, -3 / 7], rtol=1e-9)


def relu_blobs(rng, n, d, c):
    """Nonnegative features with a positive mean, as the CAE extraction
    makes them: class k raises its block of coordinates before rectifying."""
    y = np.arange(n) % c
    signal = np.zeros((n, d))
    block = d // c
    for k in range(c):
        signal[y == k, k * block:(k + 1) * block] = 0.5
    return np.maximum(0.0, rng.normal(size=(n, d)) + signal), y


class TestWhitenedSolve:
    """``train_svm`` minimizes the objective in whitened row-space
    coordinates; mapped back, every point it reports must carry the same
    primal objective value."""

    @pytest.mark.parametrize("max_iters", [3, 500], ids=["stopped-early", "converged"])
    @pytest.mark.parametrize("n, d, lam", [(40, 200, 1.0), (60, 8, 0.01), (30, 30, 1.0)],
                             ids=["n-below-d", "n-above-d", "square"])
    def test_solved_value_is_the_primal_objective_at_the_mapped_point(self, monkeypatch, n, d, lam, max_iters):
        from zbcae import svm

        solve, solved = svm.lbfgs_minimize, []

        def spy(objective, x0, config=None):
            result = solve(objective, x0, config)
            solved.append(result)
            return result

        monkeypatch.setattr(svm, "lbfgs_minimize", spy)
        x, y = relu_blobs(np.random.default_rng(73), n, d, 3)
        stopped = pytest.warns(UserWarning, match="max_iters after 3") if max_iters == 3 else nullcontext()
        with stopped:
            model = train_svm(x, y, 3, SvmTrainConfig(lam=lam, lbfgs=LbfgsConfig(max_iters=max_iters)))
        primal = squared_hinge_objective(model.weights, model.biases, x, y, lam)[0]
        assert abs(primal - solved[0].value) <= 1e-12 * abs(primal)


class TestScipyOptimumOracle:
    """The optimum ``train_svm`` reaches against scipy's L-BFGS-B on the same
    convex objective in the original coordinates (squared-hinge primal:
    Chapelle, Neural Comp. 2007)."""

    @staticmethod
    def check_against_scipy(x, y, c, lam, probe):
        optimize = pytest.importorskip("scipy.optimize")
        d = x.shape[1]

        def flat_objective(theta):
            value, dw, db = squared_hinge_objective(theta[: c * d].reshape(c, d), theta[c * d :], x, y, lam)
            return value, np.concatenate([dw.ravel(), db])

        ref = optimize.minimize(flat_objective, np.zeros(c * d + c), jac=True, method="L-BFGS-B",
                                options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 10000})
        assert ref.success
        model = train_svm(x, y, c, SvmTrainConfig(lam=lam))
        ours = squared_hinge_objective(model.weights, model.biases, x, y, lam)[0]
        assert abs(ours - ref.fun) <= 1e-6 * abs(ref.fun)
        ref_model = SvmModel(weights=ref.x[: c * d].reshape(c, d), biases=ref.x[c * d :], class_names=list("abc"))
        npt.assert_array_equal(predict_many(model, probe), predict_many(ref_model, probe))

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_objective_and_predictions_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n, d, c = 60, 8, 3
        y = np.arange(n) % c
        x = rng.normal(size=(n, d)) + 1.5 * np.eye(c, d)[y]
        probe = np.vstack([x, rng.normal(size=(200, d)) + 1.5 * np.eye(c, d)[np.arange(200) % c]])
        self.check_against_scipy(x, y, c, 1.0, probe)

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_fewer_samples_than_features_match_scipy(self, seed):
        # n < D with nonnegative, offset features: the regime where the
        # row-space reduction and the centring matter
        rng = np.random.default_rng(seed)
        x, y = relu_blobs(rng, 40, 200, 3)
        probe = np.vstack([x, relu_blobs(rng, 200, 200, 3)[0]])
        self.check_against_scipy(x, y, 3, 1.0, probe)

    @pytest.mark.parametrize("n, d", [(40, 200), (60, 8)], ids=["repeated-samples", "dependent-features"])
    def test_rank_deficient_features_match_scipy(self, n, d):
        # two repeated samples (n < D) or two features that are sums of
        # others (n > D) leave at least two squared singular values at
        # rounding level, which the whitened solve drops
        rng = np.random.default_rng(74)
        x, y = relu_blobs(rng, n, d, 3)
        if n < d:
            x[-2:], y[-2:] = x[:2], y[:2]
        else:
            x = np.hstack([x, x[:, :2] + x[:, 2:4]])
        s2, _ = _principal_scores(x, x.mean(axis=0))
        assert s2.size <= min(n, x.shape[1]) - 2
        probe = np.vstack([x, rng.normal(size=(200, x.shape[1]))])
        self.check_against_scipy(x, y, 3, 1.0, probe)


class TestFiniteNewtonOracle:
    """L-BFGS's objective gap to the exact optimum of the finite Newton
    oracle, on 300 rectified samples of 1000 features in 10 classes: the svm
    workload's regime (n < D, offset features, ten classes) at a size the
    scipy oracle cannot reach in the test budget."""

    @pytest.mark.parametrize("seed", [80, 81])
    def test_lbfgs_objective_gap_is_bounded(self, seed):
        x, y = relu_blobs(np.random.default_rng(seed), 300, 1000, 10)
        weights, biases = finite_newton_svm(x, y, 10, 1.0)
        optimum, dw, db = squared_hinge_objective(weights, biases, x, y, 1.0)
        # the oracle's point is stationary, so its value is the optimum
        assert max(np.abs(dw).max(), np.abs(db).max()) <= 1e-9 * optimum
        model = train_svm(x, y, 10)
        gap = (squared_hinge_objective(model.weights, model.biases, x, y, 1.0)[0] - optimum) / optimum
        # observed from 1e-8 to 3e-7 over seeds and BLAS thread counts
        assert -1e-12 <= gap <= 2e-6


class TestPredict:
    def test_identity_weights_pick_larger_coordinate(self):
        model = SvmModel(weights=np.eye(2), biases=np.zeros(2), class_names=["a", "b"])
        npt.assert_array_equal(predict_many(model, np.array([[5.0, 1.0], [1.0, 5.0]])), [0, 1])

    def test_all_zero_model_ties_to_class_zero(self):
        model = SvmModel(weights=np.zeros((3, 2)), biases=np.zeros(3), class_names=list("abc"))
        rng = np.random.default_rng(57)
        npt.assert_array_equal(predict_many(model, rng.normal(size=(5, 2))), np.zeros(5))

    def test_positive_scaling_preserves_predictions(self):
        rng = np.random.default_rng(58)
        model = SvmModel(weights=rng.normal(size=(4, 3)), biases=rng.normal(size=4), class_names=list("abcd"))
        x = rng.normal(size=(20, 3))
        base = predict_many(model, x)
        scaled = SvmModel(weights=3.7 * model.weights, biases=3.7 * model.biases, class_names=list("abcd"))
        npt.assert_array_equal(predict_many(scaled, x), base)

    def test_per_class_offsets_change_predictions(self):
        model = SvmModel(weights=np.eye(2), biases=np.zeros(2), class_names=["a", "b"])
        x = np.array([[5.0, 1.0]])
        npt.assert_array_equal(predict_many(model, x), [0])
        shifted = SvmModel(weights=np.eye(2), biases=np.array([0.0, 10.0]), class_names=["a", "b"])
        npt.assert_array_equal(predict_many(shifted, x), [1])

    def test_dimension_mismatch(self):
        model = SvmModel(weights=np.eye(2), biases=np.zeros(2), class_names=["a", "b"])
        for x in (np.zeros((1, 5)), np.zeros(2)):  # the wrong width; a vector instead of a matrix
            with pytest.raises(ShapeError, match="dimension"):
                predict_many(model, x)

    def test_non_finite_features_are_shape_error(self):
        # they used to predict class 0 for every row, with numpy's "invalid
        # value encountered in matmul" warning
        model = SvmModel(weights=np.eye(2), biases=np.zeros(2), class_names=["a", "b"])
        x = np.array([[np.nan, 5.0], [0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(ShapeError, match="non-finite"):
            predict_many(model, x)


class TestTop1Accuracy:
    def test_all_correct(self):
        assert top1_accuracy([1, 2, 0], [1, 2, 0]) == 1.0

    def test_all_wrong(self):
        assert top1_accuracy([0, 0, 0], [1, 2, 1]) == 0.0

    def test_three_of_four(self):
        assert top1_accuracy([1, 2, 0, 0], [1, 2, 0, 1]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            top1_accuracy([1, 2], [1])

    def test_empty_input(self):
        with pytest.raises(ShapeError, match="empty"):
            top1_accuracy([], [])
