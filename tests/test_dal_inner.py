"""Inner minimization machinery: objective, gradient, Hessian, line search."""

import threading
import warnings

import numpy as np
import pytest

from dalsparse import (
    GenSpec,
    LineSearchError,
    NumericError,
    ProblemInstance,
    SolverConfig,
    backtracking_line_search,
    compute_active_set,
    counters,
    generate,
    inner_gradient,
    inner_objective,
    inner_solve,
    inner_workspace,
    newton_direction_cholesky,
    newton_direction_pcg,
    project_linf,
    soft_threshold,
    solve,
)
from dalsparse import dal


def random_problem(rng, m=10, n=30, lam=0.05):
    A = rng.standard_normal((m, n)) / np.sqrt(2 * n)
    b = rng.standard_normal(m)
    return ProblemInstance(design=A, observations=b, lam=lam)


def explicit_hessian(p, w, eta, alpha):
    ws = inner_workspace(p, w, eta, alpha)
    ap = p.design[:, ws.active]
    return np.eye(p.m) + eta * (ap @ ap.T)


class TestComputeActiveSet:
    def test_strict_inequality(self):
        assert list(compute_active_set(np.array([2.0, 0.5, -3.0]), 1.0)) == [0, 2]

    def test_boundary_inactive(self):
        assert compute_active_set(np.array([1.0, -1.0]), 1.0).size == 0

    def test_zero_vector(self):
        assert compute_active_set(np.zeros(4), 1.0).size == 0


class TestInnerObjective:
    def test_zero_at_alpha_b_when_lambda_dominates(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 12)) * 0.1
        b = rng.standard_normal(5)
        lam = float(np.abs(A.T @ b).max()) + 1.0
        p = ProblemInstance(design=A, observations=b, lam=lam)
        assert inner_objective(p, np.zeros(12), 3.7, b) == 0.0

    def test_small_lambda_limit_is_pure_quadratic(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        alpha = rng.standard_normal(4)
        p = ProblemInstance(design=A, observations=b, lam=1e-12)
        eta = 2.5
        direct = 0.5 * np.sum((alpha - b) ** 2) + 0.5 * eta * np.sum((A.T @ alpha) ** 2)
        assert inner_objective(p, np.zeros(9), eta, alpha) == pytest.approx(
            direct, rel=1e-9
        )

    def test_agrees_with_projection_based_evaluation(self):
        # eliminating the auxiliary ball-constrained vector analytically gives
        # the distance to the clamp, which must match the shrinkage form
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_problem(rng, m=6, n=14, lam=rng.uniform(0.01, 0.5))
            w = rng.standard_normal(14)
            alpha = rng.standard_normal(6)
            eta = rng.uniform(0.1, 100)
            q = p.design.T @ alpha + w / eta
            resid = q - project_linf(q, p.lam)
            direct = 0.5 * np.sum((alpha - p.observations) ** 2) + 0.5 * eta * np.sum(
                resid**2
            )
            assert inner_objective(p, w, eta, alpha) == pytest.approx(direct, rel=1e-12)

    def test_rejects_nonpositive_eta(self):
        p = ProblemInstance(design=[[1.0]], observations=[1.0], lam=1.0)
        with pytest.raises(ValueError):
            inner_objective(p, [0.0], 0.0, [0.0])

    @pytest.mark.parametrize("eta", [np.inf, np.nan])
    def test_rejects_nonfinite_eta(self, eta):
        p = ProblemInstance(design=[[1.0]], observations=[1.0], lam=1.0)
        with pytest.raises(ValueError, match="eta"):
            inner_workspace(p, [0.0], eta, [0.0])


class TestInnerGradient:
    def test_inactive_q_gives_alpha_minus_b(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 12)) * 0.01
        b = rng.standard_normal(5)
        alpha = rng.standard_normal(5)
        p = ProblemInstance(design=A, observations=b, lam=10.0)
        np.testing.assert_array_equal(
            inner_gradient(p, np.zeros(12), 1.0, alpha), alpha - b
        )

    def test_small_lambda_limit(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        alpha = rng.standard_normal(4)
        eta = 3.0
        p = ProblemInstance(design=A, observations=b, lam=1e-12)
        expected = alpha - b + eta * (A @ (A.T @ alpha))
        np.testing.assert_allclose(
            inner_gradient(p, np.zeros(9), eta, alpha), expected, rtol=1e-9, atol=1e-9
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, m=8, n=24)
        w = rng.standard_normal(24) * 0.2
        eta = 20.0
        h = 1e-6
        checked = 0
        while checked < 100:
            alpha = rng.standard_normal(8)
            q = p.design.T @ alpha + w / eta
            if np.min(np.abs(np.abs(q) - p.lam)) < 1e-4:
                continue  # too close to a switching surface
            grad = inner_gradient(p, w, eta, alpha)
            fd = np.empty(8)
            for i in range(8):
                e = np.zeros(8)
                e[i] = h
                fd[i] = (
                    inner_objective(p, w, eta, alpha + e)
                    - inner_objective(p, w, eta, alpha - e)
                ) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-5 * (1 + np.linalg.norm(grad))
            checked += 1

    def test_touches_only_active_columns(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, m=12, n=200, lam=0.2)
        w = np.zeros(200)
        alpha = rng.standard_normal(12) * 0.5
        q = p.design.T @ alpha
        expected_active = int(np.sum(np.abs(q) > p.lam))
        counters.reset()
        inner_gradient(p, w, 1.0, alpha)
        assert counters.active_column_accesses == expected_active

    def test_hessian_operations_counted_per_active_set(self):
        rng = np.random.default_rng(60)
        p = random_problem(rng, m=10, n=120, lam=0.15)
        w = np.zeros(120)
        alpha = rng.standard_normal(10) * 0.5
        k = int(np.sum(np.abs(p.design.T @ alpha) > p.lam))
        assert 0 < k < 30
        grad = inner_gradient(p, w, 1.0, alpha)
        counters.reset()
        newton_direction_cholesky(p, w, 1.0, alpha, grad)
        assert counters.active_column_accesses == k  # one assembly
        counters.reset()
        _, iters = newton_direction_pcg(p, w, 1.0, alpha, grad, 1e-10, 100)
        # one diagonal build plus one Hessian application per CG iteration
        assert counters.active_column_accesses == k * (1 + iters)



class TestCountersPerThread:
    def test_idle_thread_reads_zero(self):
        """A thread that resets the counter and does no work reads 0 after
        another thread has counted active columns."""
        rng = np.random.default_rng(6)
        p = random_problem(rng, m=12, n=200, lam=0.2)
        w = np.zeros(200)
        alpha = rng.standard_normal(12) * 0.5
        k = int(np.sum(np.abs(p.design.T @ alpha) > p.lam))
        assert k > 0
        reset_done, work_done = threading.Event(), threading.Event()
        seen = {}

        def idle():
            counters.reset()
            reset_done.set()
            work_done.wait(10)
            seen["idle"] = counters.active_column_accesses

        def busy():
            reset_done.wait(10)
            counters.reset()
            inner_gradient(p, w, 1.0, alpha)
            seen["busy"] = counters.active_column_accesses
            work_done.set()

        counters.reset()
        threads = [threading.Thread(target=f) for f in (idle, busy)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == {"idle": 0, "busy": k}
        assert counters.active_column_accesses == 0

class TestNewtonDirections:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    def test_nonfinite_gradient_raises_before_any_hessian_product(self, variant, bad):
        rng = np.random.default_rng(60)
        p = random_problem(rng, m=10, n=120, lam=0.15)
        w = np.zeros(120)
        alpha = rng.standard_normal(10) * 0.5
        assert np.any(np.abs(p.design.T @ alpha) > p.lam)  # a nonempty active set
        grad = inner_gradient(p, w, 1.0, alpha)
        grad[3] = bad
        counters.reset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite gradient"):
                if variant == "cholesky":
                    newton_direction_cholesky(p, w, 1.0, alpha, grad)
                else:
                    newton_direction_pcg(p, w, 1.0, alpha, grad, 1e-10, 500)
        assert counters.active_column_accesses == 0

    def test_overflowing_hessian_raises(self):
        # Every column is active (A^T alpha = 2 > lam) and the gradient is
        # finite (+-3e155), but the Gram A A^T overflows to inf.
        p = ProblemInstance(design=[[1e155] * 3, [-1e155] * 3],
                            observations=[1.0, 0.0], lam=1.0)
        w = np.zeros(3)
        alpha = np.array([2e-155, 0.0])
        assert inner_workspace(p, w, 1.0, alpha).active.size == 3
        grad = inner_gradient(p, w, 1.0, alpha)
        assert np.all(np.isfinite(grad))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="non-finite Hessian assembled"):
                newton_direction_cholesky(p, w, 1.0, alpha, grad)

    def test_pcg_zero_gradient_returns_zeros_without_iterating(self):
        rng = np.random.default_rng(60)
        p = random_problem(rng, m=10, n=120, lam=0.15)
        w = np.zeros(120)
        alpha = rng.standard_normal(10) * 0.5
        k = inner_workspace(p, w, 1.0, alpha).active.size
        assert k > 0
        counters.reset()
        direction, iters = newton_direction_pcg(p, w, 1.0, alpha, np.zeros(10), 1e-10, 500)
        assert iters == 0
        np.testing.assert_array_equal(direction, np.zeros(10))
        # Only the preconditioner's diagonal touches the active columns.
        assert counters.active_column_accesses == k

    def test_empty_active_set_gives_negative_gradient(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 12)) * 0.01
        b = rng.standard_normal(5)
        p = ProblemInstance(design=A, observations=b, lam=5.0)
        alpha = rng.standard_normal(5)
        grad = inner_gradient(p, np.zeros(12), 1.0, alpha)
        np.testing.assert_array_equal(
            newton_direction_cholesky(p, np.zeros(12), 1.0, alpha, grad), b - alpha
        )

    def test_1d_scalar_arithmetic(self):
        # A=[2], b=[3], eta=1, lam ~ 0, at alpha=0.001 the single column is
        # active: Hessian = 1 + 4 = 5, gradient = 5*alpha - 3 (up to the
        # negligible lam shift), so the direction is (3 - 5*alpha)/5 = 0.599.
        p = ProblemInstance(design=[[2.0]], observations=[3.0], lam=1e-12)
        alpha = np.array([0.001])
        grad = inner_gradient(p, [0.0], 1.0, alpha)
        assert grad[0] == pytest.approx(-2.995, rel=1e-9)
        direction = newton_direction_cholesky(p, [0.0], 1.0, alpha, grad)
        assert direction[0] == pytest.approx(0.599, rel=1e-9)

    def test_cholesky_residual_small(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_problem(rng, m=7, n=21, lam=0.03)
            w = rng.standard_normal(21) * 0.3
            alpha = rng.standard_normal(7)
            eta = rng.uniform(0.5, 200)
            grad = inner_gradient(p, w, eta, alpha)
            y = newton_direction_cholesky(p, w, eta, alpha, grad)
            hess = explicit_hessian(p, w, eta, alpha)
            resid = np.linalg.norm(hess @ y + grad)
            assert resid <= 1e-10 * (1 + np.linalg.norm(grad))

    def test_pcg_identity_hessian_one_iteration(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((5, 12)) * 0.01
        b = rng.standard_normal(5)
        p = ProblemInstance(design=A, observations=b, lam=5.0)
        alpha = rng.standard_normal(5)
        grad = inner_gradient(p, np.zeros(12), 1.0, alpha)
        direction, iters = newton_direction_pcg(
            p, np.zeros(12), 1.0, alpha, grad, 1e-10, 50
        )
        assert iters == 1
        np.testing.assert_allclose(direction, -grad, rtol=1e-12)

    def test_pcg_agrees_with_cholesky(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = random_problem(rng, m=9, n=27, lam=0.03)
            w = rng.standard_normal(27) * 0.3
            alpha = rng.standard_normal(9)
            eta = rng.uniform(1, 100)
            grad = inner_gradient(p, w, eta, alpha)
            y_chol = newton_direction_cholesky(p, w, eta, alpha, grad)
            y_pcg, _ = newton_direction_pcg(p, w, eta, alpha, grad, 1e-10, 500)
            err = np.linalg.norm(y_pcg - y_chol) / max(np.linalg.norm(y_chol), 1e-30)
            assert err <= 1e-6

    def test_preconditioner_matches_explicit_hessian_diagonal(self):
        rng = np.random.default_rng(11)
        p = random_problem(rng, m=5, n=8, lam=0.02)
        w = rng.standard_normal(8)
        alpha = rng.standard_normal(5)
        eta = 7.0
        ws = inner_workspace(p, w, eta, alpha)
        assert ws.active.size > 0
        formula = 1.0 + eta * (ws.active_cols**2).sum(axis=1)
        hess = explicit_hessian(p, w, eta, alpha)
        np.testing.assert_allclose(formula, np.diag(hess), rtol=1e-12)

    def test_pcg_one_iteration_on_diagonal_hessian(self):
        # orthogonal active rows make the Hessian diagonal but ill-conditioned;
        # with the true diagonal as preconditioner CG must finish in one pass
        diag = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        A = np.zeros((5, 8))
        A[:, :5] = np.diag(diag)
        b = np.full(5, 2.0)
        p = ProblemInstance(design=A, observations=b, lam=0.01)
        alpha = np.full(5, 1.0)
        grad = inner_gradient(p, np.zeros(8), 2.0, alpha)
        direction, iters = newton_direction_pcg(p, np.zeros(8), 2.0, alpha, grad, 1e-8, 50)
        assert iters == 1
        hess = explicit_hessian(p, np.zeros(8), 2.0, alpha)
        np.testing.assert_allclose(hess @ direction, -grad, rtol=1e-8, atol=1e-10)


class TestHessianConsistency:
    def test_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(12)
        p = random_problem(rng, m=6, n=20, lam=0.05)
        w = rng.standard_normal(20) * 0.2
        eta = 15.0
        h = 1e-6
        checked = 0
        while checked < 20:
            alpha = rng.standard_normal(6)
            q = p.design.T @ alpha + w / eta
            if np.min(np.abs(np.abs(q) - p.lam)) < 1e-3:
                continue
            hess = explicit_hessian(p, w, eta, alpha)
            fd = np.empty((6, 6))
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd[:, i] = (
                    inner_gradient(p, w, eta, alpha + e)
                    - inner_gradient(p, w, eta, alpha - e)
                ) / (2 * h)
            err = np.abs(fd - hess).max() / np.abs(hess).max()
            assert err <= 1e-4
            checked += 1


class TestLineSearch:
    def test_unit_step_in_quadratic_region(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((5, 12)) * 0.01
        b = rng.standard_normal(5)
        p = ProblemInstance(design=A, observations=b, lam=50.0)
        alpha = rng.standard_normal(5)
        direction = b - alpha  # exact Newton step of the pure quadratic
        alpha_new, step = backtracking_line_search(p, np.zeros(12), 1.0, alpha, direction)
        assert step == 1.0
        np.testing.assert_allclose(alpha_new, b)

    def test_objective_always_decreases(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            p = random_problem(rng, m=6, n=18)
            w = rng.standard_normal(18) * 0.3
            alpha = rng.standard_normal(6)
            eta = rng.uniform(0.5, 1e4)
            grad = inner_gradient(p, w, eta, alpha)
            if np.linalg.norm(grad) < 1e-12:
                continue
            direction = newton_direction_cholesky(p, w, eta, alpha, grad)
            before = inner_objective(p, w, eta, alpha)
            alpha_new, _ = backtracking_line_search(p, w, eta, alpha, direction)
            assert inner_objective(p, w, eta, alpha_new) < before

    def test_nondescent_direction_falls_back(self):
        rng = np.random.default_rng(15)
        p = random_problem(rng, m=5, n=15)
        alpha = rng.standard_normal(5)
        grad = inner_gradient(p, np.zeros(15), 1.0, alpha)
        before = inner_objective(p, np.zeros(15), 1.0, alpha)
        alpha_new, _ = backtracking_line_search(p, np.zeros(15), 1.0, alpha, grad)
        assert inner_objective(p, np.zeros(15), 1.0, alpha_new) < before

    def test_steep_barrier_forces_backtracking(self):
        rng = np.random.default_rng(16)
        p = random_problem(rng, m=8, n=24, lam=0.02)
        w = rng.standard_normal(24) * 0.1
        eta = 1e6
        alpha = p.observations.copy()
        steps = []
        values = [inner_objective(p, w, eta, alpha)]
        for _ in range(25):
            grad = inner_gradient(p, w, eta, alpha)
            if np.linalg.norm(grad) <= 1e-10:
                break
            direction = newton_direction_cholesky(p, w, eta, alpha, grad)
            alpha, step = backtracking_line_search(p, w, eta, alpha, direction)
            steps.append(step)
            values.append(inner_objective(p, w, eta, alpha))
        assert any(s < 1.0 for s in steps)
        assert all(b < a for a, b in zip(values, values[1:]))


    def test_ascent_direction_raises_after_bounded_backtracking(self, monkeypatch):
        # At alpha = b, with lam above ||A^T b||_inf, the inner objective is 0,
        # its minimum, so every direction d ascends.  The gradient -d makes d
        # pass the descent test, and no step meets Armijo's strict decrease.
        rng = np.random.default_rng(17)
        A = rng.standard_normal((5, 12)) * 0.1
        b = rng.standard_normal(5)
        p = ProblemInstance(design=A, observations=b, lam=2 * float(np.abs(A.T @ b).max()))
        w = np.zeros(12)
        direction = rng.standard_normal(5)
        carried = dal._CarriedProduct.start(w, A.T @ b)
        ws = inner_workspace(p, w, 1.0, b, carried.design_t_alpha)
        real_objective = dal._objective_from_q
        values = []

        def objective(*args):
            values.append(real_objective(*args))
            return values[-1]

        monkeypatch.setattr(dal, "_objective_from_q", objective)
        with pytest.raises(LineSearchError, match="step underflow"):
            dal._line_search(ws, direction, -direction, carried)
        # The start, then one trial per step 1, 1/2, ..., 2**-53 >= _MIN_STEP.
        assert len(values) == 1 + 54
        assert values[0] == 0.0 and min(values[1:]) > 0.0


class TestInnerSolve:
    def test_rejects_nonpositive_eps(self):
        p = ProblemInstance(design=[[1.0]], observations=[1.0], lam=1.0)
        with pytest.raises(ValueError):
            inner_solve(p, np.zeros(1), 1.0, 0.0, np.zeros(1), SolverConfig())

    @pytest.mark.parametrize("eps", [np.inf, np.nan, -1.0])
    def test_rejects_eps_that_is_not_finite_and_positive(self, eps):
        # eps = inf would otherwise stop before the first Newton step.
        p = ProblemInstance(design=[[1.0]], observations=[1.0], lam=1.0)
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            inner_solve(p, np.zeros(1), 1.0, eps, np.zeros(1), SolverConfig())

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_pcg_rejects_tol_that_is_not_finite_and_positive(self, tol):
        p = generate(GenSpec(family="normal", m=8, seed=1)).problem
        alpha = p.observations
        grad = inner_gradient(p, np.zeros(p.n), 1.0, alpha)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            newton_direction_pcg(p, np.zeros(p.n), 1.0, alpha, grad, tol, 50)

    @pytest.mark.parametrize("max_iters", [2.5, True, 0, np.float64(3.0)])
    def test_pcg_rejects_max_iters_that_is_not_a_count(self, max_iters):
        p = generate(GenSpec(family="normal", m=8, seed=1)).problem
        alpha = p.observations
        grad = inner_gradient(p, np.zeros(p.n), 1.0, alpha)
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            newton_direction_pcg(p, np.zeros(p.n), 1.0, alpha, grad, 1e-8, max_iters)

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_eta_before_dividing_by_it(self, eta):
        # A ValueError, not numpy's divide warning: w / eta is never formed.
        p = generate(GenSpec(family="normal", m=8, seed=1)).problem
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="eta must be finite and positive"):
                inner_solve(p, np.zeros(p.n), eta, 1e-3, np.zeros(p.m), SolverConfig())

    def test_returns_its_own_alpha_without_newton_steps(self):
        # eps = 1e300 stops before the first Newton step; the alpha returned
        # is still a new array, never the caller's alpha_start.
        p = random_problem(np.random.default_rng(5))
        alpha_start = 0.5 * p.observations
        alpha, iters, _, _ = inner_solve(
            p, np.zeros(p.n), 1.0, 1e300, alpha_start, SolverConfig()
        )
        assert iters == 0
        assert not np.shares_memory(alpha, alpha_start)
        np.testing.assert_array_equal(alpha, alpha_start)

    def test_lambda_dominated_reaches_b_quickly(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((6, 15)) * 0.1
        b = rng.standard_normal(6)
        lam = float(np.abs(A.T @ b).max()) * 2
        p = ProblemInstance(design=A, observations=b, lam=lam)
        cfg = SolverConfig()
        alpha, iters, _, _ = inner_solve(p, np.zeros(15), 1.0, 1e-10, np.zeros(6), cfg)
        assert iters <= 2
        np.testing.assert_allclose(alpha, b, atol=1e-10)

    def test_reaches_requested_gradient_norm(self):
        # arbitrary (w, eta) pairs can park the inner minimizer right on a
        # switching surface where truncated directions crawl; a capped run is
        # a warning by contract, so the norm bound applies to uncapped runs
        rng = np.random.default_rng(18)
        for variant in ("cholesky", "pcg"):
            cfg = SolverConfig(inner_variant=variant)
            capped = 0
            for _ in range(10):
                p = random_problem(rng, m=8, n=24)
                w = rng.standard_normal(24) * 0.2
                eta = rng.uniform(1, 500)
                eps = 1e-8
                alpha, iters, _, _ = inner_solve(p, w, eta, eps, p.observations, cfg)
                if iters >= dal._MAX_INNER_NEWTON:
                    capped += 1
                    continue
                grad = inner_gradient(p, w, eta, alpha)
                assert np.linalg.norm(grad) <= eps
            assert capped <= 1

    def test_local_convergence_at_least_superlinear(self):
        # gradient norms collapse from ~1e-3 to machine precision in one step
        rng = np.random.default_rng(42)
        m, n = 16, 64
        A = rng.standard_normal((m, n)) / np.sqrt(2 * n)
        b = rng.standard_normal(m)
        p = ProblemInstance(design=A, observations=b, lam=0.025)
        w = rng.standard_normal(n) * 0.1
        eta = 50.0
        alpha = b.copy()
        norms = []
        for _ in range(40):
            grad = inner_gradient(p, w, eta, alpha)
            gn = float(np.linalg.norm(grad))
            norms.append(gn)
            if gn <= 1e-12:
                break
            direction = newton_direction_cholesky(p, w, eta, alpha, grad)
            alpha, _ = backtracking_line_search(p, w, eta, alpha, direction)
        assert norms[-1] <= 1e-12
        tail = [x for x in norms if x < 1.0]
        assert len(tail) >= 3
        for prev, nxt in list(zip(tail, tail[1:]))[-2:]:
            assert nxt <= 10.0 * prev**1.8


def multiplier_step(p, w, eta, alpha):
    """||ST_{lam*eta}(w + eta*A^T alpha) - w|| / sqrt(eta), computed directly."""
    w_next = soft_threshold(w + eta * (p.design.T @ alpha), p.lam * eta)
    return float(np.linalg.norm(w_next - w)) / np.sqrt(eta)


class TestProgressStopRule:
    """``inner_solve`` with a progress factor also stops once the gradient
    norm is at most factor * multiplier step / sqrt(eta)."""

    def test_returned_alpha_meets_rule(self):
        rng = np.random.default_rng(18)
        for variant in ("cholesky", "pcg"):
            cfg = SolverConfig(inner_variant=variant)
            steps_eps = steps_rule = 0
            for _ in range(10):
                p = random_problem(rng, m=8, n=24)
                w = rng.standard_normal(24) * 0.2
                eta = rng.uniform(1, 500)
                eps = 1e-8
                _, n_eps, _, _ = inner_solve(p, w, eta, eps, p.observations, cfg)
                alpha, n_rule, _, _ = inner_solve(
                    p, w, eta, eps, p.observations, cfg, 1.0
                )
                assert n_rule <= n_eps
                steps_eps += n_eps
                steps_rule += n_rule
                if n_rule >= dal._MAX_INNER_NEWTON:
                    continue
                gnorm = np.linalg.norm(inner_gradient(p, w, eta, alpha))
                assert gnorm <= max(eps, multiplier_step(p, w, eta, alpha))
            assert steps_rule < steps_eps

    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    def test_fewer_newton_steps_at_first_outer_point(self, variant):
        # solve()'s first outer point (w = 0, eta = 1/lam, the scheduled eps),
        # entered from alpha = b rather than solve()'s scaled feasible start.
        cfg = SolverConfig(inner_variant=variant)
        for seed in (1, 2, 3):
            p = generate(GenSpec(family="normal", m=64, seed=seed)).problem
            w, eta, eps = np.zeros(p.n), 1.0 / p.lam, 1e-4 * np.sqrt(p.m)
            _, n_eps, _, _ = inner_solve(p, w, eta, eps, p.observations, cfg)
            alpha, n_rule, _, _ = inner_solve(p, w, eta, eps, p.observations, cfg, 1.0)
            assert n_rule < n_eps
            gnorm = np.linalg.norm(inner_gradient(p, w, eta, alpha))
            assert gnorm <= max(eps, multiplier_step(p, w, eta, alpha))

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_factor_that_is_not_finite_and_positive(self, factor):
        # 0 and -1 would otherwise turn the rule off, and inf or NaN would
        # surface only as a non-finite threshold after the first gradient.
        p = generate(GenSpec(family="normal", m=16, seed=1)).problem
        w, eta, eps = np.zeros(p.n), 1.0 / p.lam, 1e-4 * np.sqrt(p.m)
        counters.reset()
        with pytest.raises(ValueError, match="progress_factor must be finite and positive"):
            inner_solve(p, w, eta, eps, p.observations, SolverConfig(), factor)
        assert counters.active_column_accesses == 0

    def test_nonfinite_threshold_raises_numeric_error(self):
        rng = np.random.default_rng(19)
        p = random_problem(rng, m=8, n=24)
        w = np.zeros(24)
        w[3] = np.nan
        # alpha = 0 keeps the gradient (about -b) finite and far above eps, so
        # only the NaN threshold can end the loop.
        with pytest.raises(NumericError):
            inner_solve(p, w, 10.0, 1e-8, np.zeros(8), SolverConfig(), 1.0)


class TestActiveSetOperator:
    """The workspace's A+ products match dense ``A[:, active]`` arithmetic,
    with some columns active and with all of them, gathered either way."""

    @pytest.fixture(params=["some-active", "all-active"])
    def workspace(self, request):
        rng = np.random.default_rng(61)
        p = random_problem(rng, m=8, n=40, lam=0.4)
        alpha = rng.standard_normal(8)
        if request.param == "some-active":
            w = np.zeros(40)
        else:
            w = np.full(40, 100.0)  # q_j ~ 50 > lam: every column is active
        ws = inner_workspace(p, w, 2.0, alpha)
        if request.param == "some-active":
            assert 0 < ws.active.size < 40
        else:
            assert ws.active.size == 40
        np.testing.assert_array_equal(ws.active_cols, p.design[:, ws.active])
        return p, ws

    def test_products_match_dense(self, workspace):
        p, ws = workspace
        dense = p.design[:, ws.active]
        rng = np.random.default_rng(62)
        values = rng.standard_normal(ws.active.size)
        vec = rng.standard_normal(p.m)
        tight = dict(rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(ws.matvec(values), dense @ values, **tight)
        np.testing.assert_allclose(ws.rmatvec(vec), dense.T @ vec, **tight)
        np.testing.assert_allclose(ws.gram(), dense @ dense.T, **tight)
        np.testing.assert_allclose(ws.diag(), (dense**2).sum(axis=1), **tight)

    def test_touch_counts(self, workspace):
        p, ws = workspace
        k = int(ws.active.size)
        calls = [
            (lambda: ws.matvec(np.ones(k)), k),
            (lambda: ws.rmatvec(np.ones(p.m)), 0),
            (ws.gram, k),
            (ws.diag, k),
        ]
        for call, touches in calls:
            counters.reset()
            call()
            assert counters.active_column_accesses == touches


def point_with_active_set(p, active, eta, rng):
    """w and alpha whose workspace at ``eta`` has exactly the columns
    ``active`` active, with |q_j| = lam + 1 there and q_j = 0 elsewhere."""
    alpha = rng.standard_normal(p.m)
    target = np.zeros(p.n)
    target[active] = (p.lam + 1.0) * rng.choice([-1.0, 1.0], size=len(active))
    return eta * (target - p.design.T @ alpha), alpha


def problem_with_active_set(m, n, k, eta, seed):
    """A problem, w and alpha whose workspace has exactly the first k columns
    active, with |q_j| = lam + 1 there and q_j = 0 elsewhere."""
    rng = np.random.default_rng(seed)
    p = random_problem(rng, m=m, n=n, lam=0.1)
    w, alpha = point_with_active_set(p, np.arange(k), eta, rng)
    return p, w, alpha


class TestNewtonSystemForm:
    """The Cholesky direction factors the smaller of I + eta*A+ A+^T (m x m)
    and I + eta*A+^T A+ (k x k) and solves the m x m system either way."""

    # (m, n, k): k below, at and above m, with k a small and a large share of n
    CASES = [
        (20, 200, 8),
        (20, 200, 20),
        (20, 200, 40),
        (40, 100, 30),
        (40, 100, 40),
        (40, 100, 60),
    ]

    @pytest.mark.parametrize("eta", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("m, n, k", CASES)
    def test_factors_smaller_form_and_solves_full_system(
        self, m, n, k, eta, monkeypatch
    ):
        p, w, alpha = problem_with_active_set(m, n, k, eta, seed=m + n + k)
        ws = inner_workspace(p, w, eta, alpha)
        assert ws.active.size == k
        shapes = []
        factor = dal.cho_factor

        def recording_factor(hess):
            shapes.append(hess.shape)
            return factor(hess)

        monkeypatch.setattr(dal, "cho_factor", recording_factor)
        grad = inner_gradient(p, w, eta, alpha)
        counters.reset()
        y = newton_direction_cholesky(p, w, eta, alpha, grad)
        assert shapes == [(min(k, m), min(k, m))]
        assert counters.active_column_accesses == k
        hess = explicit_hessian(p, w, eta, alpha)
        resid = np.linalg.norm(hess @ y + grad)
        assert resid <= 1e-10 * (1 + np.linalg.norm(grad))


class TestKeptGram:
    """Replayed over the active sets of the Cholesky steps of real solves, a
    k x k Gram built from the one kept at the last step matches a fresh
    A+^T A+, leaves the kept one as it was, and gives a direction that meets
    TestNewtonSystemForm's bound; each smaller_gram call counts k columns."""

    # (family, size, seed, random start, eta_initial times lam): the
    # largescale solve starts with k >= m, switches to k < m, has a step
    # where more than half of k enters the kept Gram, and has steps where
    # columns both enter and leave.
    CASES = [
        ("normal", dict(m=64), 1, False, None),
        ("largescale", dict(n=4096), 1, True, 1.0),
    ]

    @staticmethod
    def active_sets(monkeypatch, family, size, seed, random_start, eta_scale):
        p = generate(GenSpec(family=family, seed=seed, **size)).problem
        w_initial = np.random.default_rng(seed).standard_normal(p.n) if random_start else None
        eta_initial = None if eta_scale is None else eta_scale / p.lam
        sets = []
        real = dal._newton_cholesky

        def newton_cholesky(ws, grad, carried=None):
            sets.append(ws.active.copy())
            return real(ws, grad, carried)

        with monkeypatch.context() as patch:
            patch.setattr(dal, "_newton_cholesky", newton_cholesky)
            assert solve(p, SolverConfig(eta_initial=eta_initial), w_initial).converged
        return p, sets

    @pytest.mark.parametrize("eta", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("case", CASES, ids=["normal-64", "largescale-4096"])
    def test_replayed_steps_match_a_fresh_gram(self, monkeypatch, case, eta):
        p, sets = self.active_sets(monkeypatch, *case)
        touches = []
        real_smaller_gram = dal.InnerWorkspace.smaller_gram

        def smaller_gram(ws, *args):
            before = counters.active_column_accesses
            gram = real_smaller_gram(ws, *args)
            touches.append((int(ws.active.size), counters.active_column_accesses - before))
            return gram

        monkeypatch.setattr(dal.InnerWorkspace, "smaller_gram", smaller_gram)
        rng = np.random.default_rng(0)
        carried = dal._CarriedProduct.start(np.zeros(p.n), np.zeros(p.n))
        paths = set()
        for active in sets:
            w, alpha = point_with_active_set(p, active, eta, rng)
            ws = inner_workspace(p, w, eta, alpha)
            np.testing.assert_array_equal(ws.active, active)
            grad = inner_gradient(p, w, eta, alpha)
            last = carried.gram
            last_gram = None if last is None else last[1].copy()
            touches.clear()
            y = dal._newton_cholesky(ws, grad, carried)
            k = active.size
            assert touches == ([(k, k)] if k else [])
            if last is not None:
                np.testing.assert_array_equal(last[1], last_gram)
            if 0 < k < p.m:
                cols, kept = carried.gram
                np.testing.assert_array_equal(cols, active)
                fresh = ws.active_cols.T @ ws.active_cols
                assert np.abs(kept - fresh).max() <= 1e-12 * np.abs(fresh).max()
                if last is None:
                    paths.add("fresh")
                else:
                    entering = np.setdiff1d(active, last[0]).size
                    leaving = np.setdiff1d(last[0], active).size
                    paths.add(("kept", entering > 0, leaving > 0) if 2 * entering <= k
                              else ("kept", "most enter"))
            else:
                assert carried.gram is last
                paths.add("m x m" if k else "empty")
            hess = explicit_hessian(p, w, eta, alpha)
            resid = np.linalg.norm(hess @ y + grad)
            assert resid <= 1e-10 * (1 + np.linalg.norm(grad))
        if case[0] == "largescale":
            assert {"m x m", ("kept", "most enter"), ("kept", True, True)} <= paths
            assert sets[0].size >= p.m > sets[-1].size
        else:
            assert {("kept", True, False), ("kept", False, True)} <= paths

    def test_m_x_m_step_leaves_the_kept_gram(self):
        """A k x k step, an m x m step, then a k x k step again: the m x m
        step leaves the kept Gram as it was, and the last step's Gram, built
        from it, matches a fresh A+^T A+."""
        p = random_problem(np.random.default_rng(1), m=10, n=30)
        rng = np.random.default_rng(2)
        carried = dal._CarriedProduct.start(np.zeros(p.n), np.zeros(p.n))
        grams = []
        for active in ([2, 3, 5, 7, 11], range(12), [3, 5, 7, 13]):
            w, alpha = point_with_active_set(p, list(active), 1.0, rng)
            ws = inner_workspace(p, w, 1.0, alpha)
            dal._newton_cholesky(ws, inner_gradient(p, w, 1.0, alpha), carried)
            grams.append(carried.gram)
        assert grams[1] is grams[0]
        cols, last = grams[2]
        np.testing.assert_array_equal(cols, [3, 5, 7, 13])
        fresh = p.design[:, cols].T @ p.design[:, cols]
        assert np.abs(last - fresh).max() <= 1e-12 * np.abs(fresh).max()

    # (kept, active): the kept Gram is updated however many columns enter,
    # from none to every one, so each case takes the same path.
    EDGES = [
        ([4, 5, 6, 7, 8], [1, 4, 5, 6, 7, 8, 12]),
        ([5], [3, 5]),
        ([5], [5, 9]),
        ([2, 3, 5, 7, 11], [3, 7]),
        ([2, 3, 5, 7], [2, 3, 5, 7]),
        ([5], [1, 3, 5, 9]),
        ([2, 3], [5, 7, 9]),
    ]

    @pytest.mark.parametrize("kept, active", EDGES, ids=[
        "enter-first-and-last", "one-kept-enter-first", "one-kept-enter-last",
        "only-leave", "unchanged", "most-enter", "none-stays",
    ])
    def test_update_at_its_edges(self, kept, active):
        p = random_problem(np.random.default_rng(1), m=10, n=30)
        kept, active = np.array(kept), np.array(active)
        last = (kept, p.design[:, kept].T @ p.design[:, kept])
        last_gram = last[1].copy()
        w, alpha = point_with_active_set(p, active, 1.0, np.random.default_rng(2))
        ws = inner_workspace(p, w, 1.0, alpha)
        np.testing.assert_array_equal(ws.active, active)
        fresh = ws.active_cols.T @ ws.active_cols
        for _ in range(2):
            before = counters.active_column_accesses
            gram = ws.smaller_gram(last)
            assert counters.active_column_accesses - before == active.size
            assert np.abs(gram - fresh).max() <= 1e-12 * np.abs(fresh).max()
            np.testing.assert_array_equal(last[0], kept)
            np.testing.assert_array_equal(last[1], last_gram)


class TestCholeskyFactor:
    def test_is_numpy_cholesky(self):
        rng = np.random.default_rng(63)
        a = rng.standard_normal((6, 6))
        h = np.eye(6) + a @ a.T
        np.testing.assert_array_equal(dal.cho_factor(h), np.linalg.cholesky(h))

    def test_indefinite_raises_numeric_error(self):
        with pytest.raises(NumericError, match="Cholesky factorization failed"):
            dal.cho_factor(np.diag([1.0, -1.0]))
