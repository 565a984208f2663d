"""Inner minimization machinery: objective, gradient, Hessian, line search."""

import numpy as np
import pytest

from dalsparse import (
    ProblemInstance,
    SolverConfig,
    backtracking_line_search,
    compute_active_set,
    counters,
    inner_gradient,
    inner_objective,
    inner_solve,
    inner_workspace,
    newton_direction_cholesky,
    newton_direction_pcg,
    project_linf,
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


class TestNewtonDirections:
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


class TestInnerSolve:
    def test_rejects_nonpositive_eps(self):
        p = ProblemInstance(design=[[1.0]], observations=[1.0], lam=1.0)
        with pytest.raises(ValueError):
            inner_solve(p, np.zeros(1), 1.0, 0.0, np.zeros(1), SolverConfig())

    def test_lambda_dominated_reaches_b_quickly(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((6, 15)) * 0.1
        b = rng.standard_normal(6)
        lam = float(np.abs(A.T @ b).max()) * 2
        p = ProblemInstance(design=A, observations=b, lam=lam)
        cfg = SolverConfig()
        alpha, iters, _ = inner_solve(p, np.zeros(15), 1.0, 1e-10, np.zeros(6), cfg)
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
                alpha, iters, _ = inner_solve(p, w, eta, eps, p.observations, cfg)
                if iters >= cfg.max_inner_newton:
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
        cfg = SolverConfig()
        for _ in range(40):
            grad = inner_gradient(p, w, eta, alpha)
            gn = float(np.linalg.norm(grad))
            norms.append(gn)
            if gn <= 1e-12:
                break
            direction = newton_direction_cholesky(p, w, eta, alpha, grad)
            alpha, _ = backtracking_line_search(
                p, w, eta, alpha, direction, cfg.ls_shrink, cfg.ls_sufficient_decrease
            )
        assert norms[-1] <= 1e-12
        tail = [x for x in norms if x < 1.0]
        assert len(tail) >= 3
        for prev, nxt in list(zip(tail, tail[1:]))[-2:]:
            assert nxt <= 10.0 * prev**1.8


class TestActiveSetOperator:
    """The workspace's A+ products match dense ``A[:, active]`` arithmetic on
    the gathered path, the masked path, and the masked path in chunks."""

    @pytest.fixture(params=["gathered", "masked", "masked-chunked"])
    def workspace(self, request, monkeypatch):
        rng = np.random.default_rng(61)
        p = random_problem(rng, m=8, n=40, lam=0.4)
        alpha = rng.standard_normal(8)
        if request.param == "gathered":
            w = np.zeros(40)
        else:
            w = np.full(40, 100.0)  # q_j ~ 50 > lam: every column is active
        if request.param == "masked-chunked":
            # 3-column chunks: 40 active columns take 14 blocks
            monkeypatch.setattr(dal, "_GATHER_MAX_ELEMENTS", 4 * 8 * 3)
        ws = inner_workspace(p, w, 2.0, alpha)
        if request.param == "gathered":
            assert ws.active_cols is not None and 0 < ws.active.size < 40
        else:
            assert ws.active_cols is None and ws.active.size == 40
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
