import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from taxrewire.learner import LogisticProblem, lr_objective_gradient
from taxrewire.solver import MEMORY, SolveResult, minimize_lbfgs

from reference_impls import norm_recomputing_lbfgs


def quadratic(center, scales):
    center = np.asarray(center, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)

    def fg(x):
        d = x - center
        return float(0.5 * np.dot(scales * d, d)), scales * d

    return fg


def rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
        2.0 * b * (x[1] - x[0] ** 2),
    ])
    return float(f), g


class TestConvergence:
    def test_quadratic_reaches_center(self):
        fg = quadratic([3.0, -2.0, 0.5], [1.0, 10.0, 0.1])
        res = minimize_lbfgs(fg, np.zeros(3), grad_tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, [3.0, -2.0, 0.5], atol=1e-6)

    def test_badly_scaled_quadratic(self):
        fg = quadratic(np.ones(5), [1e-3, 1e-2, 1.0, 1e2, 1e3])
        res = minimize_lbfgs(fg, np.zeros(5), grad_tol=1e-10, max_iter=500)
        assert res.converged
        np.testing.assert_allclose(res.x, np.ones(5), atol=1e-5)

    def test_rosenbrock_valley(self):
        res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), grad_tol=1e-10, max_iter=5000)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_start_at_optimum_takes_no_steps(self):
        fg = quadratic([0.0, 0.0], [1.0, 1.0])
        res = minimize_lbfgs(fg, np.zeros(2))
        assert res.converged and res.n_iter == 0

    def test_matches_external_reference_objective(self):
        # Independent route: scipy's own quasi-Newton on the same problem.
        from scipy.optimize import minimize as scipy_minimize

        rng = np.random.default_rng(5)
        center = rng.uniform(-2, 2, size=8)
        scales = rng.uniform(0.5, 4.0, size=8)
        fg = quadratic(center, scales)
        ours = minimize_lbfgs(fg, np.zeros(8), grad_tol=1e-12)
        theirs = scipy_minimize(
            lambda x: fg(x)[0], np.zeros(8), jac=lambda x: fg(x)[1],
            method="L-BFGS-B", options={"gtol": 1e-12, "ftol": 0.0},
        )
        assert ours.fun == pytest.approx(float(theirs.fun), abs=1e-10)
        np.testing.assert_allclose(ours.x, theirs.x, atol=1e-6)


class TestBehaviour:
    def test_history_is_monotone(self):
        res = minimize_lbfgs(
            rosenbrock, np.array([-1.2, 1.0]), max_iter=200, record_history=True
        )
        hist = res.history
        assert hist is not None and len(hist) == res.n_iter + 1
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_history_disabled_by_default(self):
        res = minimize_lbfgs(quadratic([1.0], [1.0]), np.zeros(1))
        assert res.history is None

    def test_iteration_budget_respected(self):
        res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), grad_tol=1e-14, max_iter=3)
        assert res.n_iter <= 3
        assert not res.converged

    def test_nonfinite_start_rejected(self):
        def bad(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(ValueError, match="not finite"):
            minimize_lbfgs(bad, np.zeros(2))

    def test_bitwise_deterministic(self):
        fg = quadratic([0.3, -0.7, 2.0], [2.0, 0.5, 7.0])
        a = minimize_lbfgs(fg, np.array([5.0, 5.0, 5.0]))
        b = minimize_lbfgs(fg, np.array([5.0, 5.0, 5.0]))
        assert np.array_equal(a.x, b.x)
        assert a.fun == b.fun and a.n_iter == b.n_iter

    def test_result_type(self):
        res = minimize_lbfgs(quadratic([1.0], [1.0]), np.zeros(1))
        assert isinstance(res, SolveResult)
        assert res.grad_norm >= 0.0

    def test_huge_initial_gradient_handled(self):
        # first trial step shrinks with 1/|g0|, so this must not overflow
        fg = quadratic([0.0], [1e8])
        res = minimize_lbfgs(fg, np.array([1e4]), grad_tol=1e-10, max_iter=200)
        assert res.converged
        assert abs(res.x[0]) < 1e-4


def huber(center, scales, delta):
    """Scaled Huber loss: its gradient is constant on the linear tails, so a
    step between two tail points has y = 0 and the curvature guard skips it."""
    center = np.asarray(center, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)

    def fg(x):
        r = x - center
        a = np.abs(r)
        f = np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))
        return float(np.dot(scales, f)), scales * np.clip(r, -delta, delta)

    return fg


def flat_bottom(center, scales, depth):
    """A quadratic lowered by ``depth`` and clipped at 0.  Once a step lands
    where it is 0, its gradient is not, and no step decreases it: the line
    search fails."""
    inner = quadratic(center, scales)

    def fg(x):
        f, g = inner(x)
        return max(f - depth, 0.0), g

    return fg


def logistic(rng, n, d):
    features = sp.random(n, d, density=0.5, format="csr", random_state=rng,
                         data_rvs=rng.standard_normal)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    costs = rng.uniform(0.2, 3.0, size=n) if rng.random() < 0.5 else None
    problem = LogisticProblem(features, labels, float(rng.uniform(0.01, 100.0)), costs)
    return lambda th: lr_objective_gradient(th, problem)


def random_problem(kind, rng, d):
    """An objective and a start of ``kind``, drawn from ``rng`` in ``d`` dimensions."""
    center = rng.uniform(-5.0, 5.0, size=d)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
    x0 = rng.uniform(-20.0, 20.0, size=d)
    if kind == "quadratic":
        return quadratic(center, scales), x0
    if kind == "huber":
        return huber(center, scales, float(rng.uniform(0.1, 2.0))), x0
    if kind == "flat-bottom":
        return flat_bottom(center, scales, float(10.0 ** rng.uniform(-6.0, 0.0))), x0
    if kind == "rosenbrock":
        return rosenbrock, rng.uniform(-2.0, 2.0, size=2)
    return logistic(rng, int(rng.integers(1, 30)), d), rng.standard_normal(d)


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_matches_oracle(fg, x0, **kwargs):
    """minimize_lbfgs equals the frozen norm-recomputing solver in every field, bit for bit."""
    want = norm_recomputing_lbfgs(fg, x0, record_history=True, **kwargs)
    got = minimize_lbfgs(fg, x0, record_history=True, **kwargs)
    assert got.x.tobytes() == want.x.tobytes()
    assert bits(got.fun) == bits(want.fun)
    assert bits(got.grad_norm) == bits(want.grad_norm)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)
    assert bits(got.history) == bits(want.history)
    return got


class TestMatchesNormRecomputingOracle:
    """The solver keeps each inner product it has already taken; every field
    of its result equals the solver that recomputed them, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["quadratic", "huber", "flat-bottom", "rosenbrock", "logistic"]),
           seed=st.integers(0, 2**32 - 1), d=st.integers(1, 24),
           grad_tol=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]), max_iter=st.integers(1, 80))
    def test_random_problems(self, kind, seed, d, grad_tol, max_iter):
        fg, x0 = random_problem(kind, np.random.default_rng(seed), d)
        assert_matches_oracle(fg, x0, grad_tol=grad_tol, max_iter=max_iter)

    def test_run_longer_than_the_memory(self):
        fg = quadratic(np.ones(6), [1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0])
        res = assert_matches_oracle(fg, np.zeros(6), grad_tol=1e-12, max_iter=500)
        assert res.converged and res.n_iter > 2 * MEMORY

    def test_max_iter_stop(self):
        res = assert_matches_oracle(rosenbrock, np.array([-1.2, 1.0]), grad_tol=1e-14,
                                    max_iter=MEMORY + 3)
        assert not res.converged and res.n_iter == MEMORY + 3

    def test_failed_line_search(self):
        fg = flat_bottom(np.ones(6), [1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0], 1e-3)
        res = assert_matches_oracle(fg, np.zeros(6), grad_tol=1e-12, max_iter=100)
        assert not res.converged and MEMORY < res.n_iter < 100 and res.fun == 0.0

    @pytest.mark.parametrize("center,x0", [([0.0, 100.0], [1.0, 0.0]),
                                           ([5.0, 0.0], [100.0, 0.5])])
    def test_skipped_pair_keeps_the_last_stored_gamma(self, center, x0):
        # A step between two tail points has y = 0: the guard skips the pair,
        # and the two-loop scaling still comes from the last stored one.
        fg = huber(center, [1.0, 1.0], 1.0)
        skipped = []
        norm_recomputing_lbfgs(fg, np.array(x0), max_iter=500, skipped=skipped)
        assert skipped
        assert assert_matches_oracle(fg, np.array(x0), max_iter=500).converged
