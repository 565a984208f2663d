"""Shrinkage baseline: steps, spectral step sizes, full loop."""

import time

import numpy as np
import pytest

from dalsparse import (
    GenSpec,
    IstConfig,
    ProblemInstance,
    SolverConfig,
    bb_step,
    estimate_spectral_norm_sq,
    generate,
    ist_solve,
    ist_step,
    primal_objective,
    solve,
    soft_threshold,
)
from dalsparse import baselines
from dalsparse.baselines import NONMONOTONE_MEMORY, TAU_MAX, TAU_MIN
from oracles import cd_lasso


def gaussian_problem(rng, m=32, n=128, lam=0.025):
    A = rng.standard_normal((m, n)) / np.sqrt(2 * n)
    w0 = np.zeros(n)
    support = rng.choice(n, size=max(1, n // 25), replace=False)
    w0[support] = rng.choice([-1.0, 1.0], size=support.size)
    b = A @ w0 + rng.standard_normal(m) * 1e-2
    return ProblemInstance(design=A, observations=b, lam=lam)


class TestSpectralNormEstimate:
    def test_matches_svd(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((12, 40))
        exact = np.linalg.svd(A, compute_uv=False)[0] ** 2
        assert estimate_spectral_norm_sq(A) == pytest.approx(exact, rel=1e-6)

    def test_restarts_when_ones_lie_in_null_space(self):
        A = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 2.0, -2.0]])
        assert not (A @ np.ones(4)).any()
        assert estimate_spectral_norm_sq(A) == pytest.approx(8.0, rel=1e-6)

    def test_zero_design_gives_zero(self):
        assert estimate_spectral_norm_sq(np.zeros((2, 4))) == 0.0


class TestIstStep:
    def test_identity_design_unit_step_solves(self):
        b = np.array([3.0, 0.5, -2.0])
        p = ProblemInstance(design=np.eye(3), observations=b, lam=1.0)
        out = ist_step(p, np.zeros(3), 1.0)
        np.testing.assert_allclose(out, soft_threshold(b, 1.0))

    def test_fixed_point_at_oracle_optimum(self):
        rng = np.random.default_rng(32)
        p = gaussian_problem(rng, m=16, n=48)
        w_star, _, _ = cd_lasso(p.design, p.observations, p.lam, gap_tol=1e-14)
        lipschitz = estimate_spectral_norm_sq(p.design)
        for tau in (0.5 / lipschitz, 1.0 / lipschitz, 1.9 / lipschitz):
            stepped = ist_step(p, w_star, tau)
            assert np.abs(stepped - w_star).max() <= 1e-8

    def test_zero_start_formula(self):
        rng = np.random.default_rng(33)
        p = gaussian_problem(rng, m=8, n=20)
        tau = 0.7
        expected = soft_threshold(tau * (p.design.T @ p.observations), p.lam * tau)
        np.testing.assert_allclose(ist_step(p, np.zeros(20), tau), expected)

    def test_rejects_nonpositive_tau(self):
        p = ProblemInstance(design=[[1.0]], observations=[1.0], lam=1.0)
        with pytest.raises(ValueError):
            ist_step(p, [0.0], 0.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_rejects_nonfinite_tau(self, tau):
        p = ProblemInstance(design=[[1.0]], observations=[1.0], lam=1.0)
        with pytest.raises(ValueError, match="tau"):
            ist_step(p, [0.0], tau)


class TestBBStep:
    def test_recovers_curvature_of_scaled_identity(self):
        # smooth-part gradient of 0.5*||c^(1/2) w||^2-style quadratic: y = c*s
        rng = np.random.default_rng(34)
        c = 3.7
        w_prev = rng.standard_normal(10)
        w_curr = rng.standard_normal(10)
        g_prev = c * w_prev
        g_curr = c * w_curr
        assert bb_step(w_prev, w_curr, g_prev, g_curr) == pytest.approx(1 / c)

    def test_nonpositive_curvature_returns_tau_max(self):
        w_prev = np.zeros(3)
        w_curr = np.ones(3)
        g_prev = np.ones(3)
        g_curr = np.zeros(3)  # s^T y = -3
        assert bb_step(w_prev, w_curr, g_prev, g_curr) == TAU_MAX

    def test_always_clamped(self):
        # Gradient changes scaled by 1e-12 and 1e12 put the raw step s^T s /
        # s^T y above TAU_MAX and below TAU_MIN, so both clamps are hit.
        rng = np.random.default_rng(35)
        raw_outside = set()
        for scale in (1e-12, 1.0, 1e12):
            for _ in range(50):
                w_prev = rng.standard_normal(6)
                w_curr = rng.standard_normal(6)
                g_prev = scale * rng.standard_normal(6)
                g_curr = scale * rng.standard_normal(6)
                s, y = w_curr - w_prev, g_curr - g_prev
                raw = float(s @ s) / float(s @ y)
                if raw > TAU_MAX:
                    raw_outside.add("above")
                elif 0 < raw < TAU_MIN:
                    raw_outside.add("below")
                tau = bb_step(w_prev, w_curr, g_prev, g_curr)
                assert TAU_MIN <= tau <= TAU_MAX
        assert raw_outside == {"above", "below"}


class TestIstSolve:
    def test_lambda_dominated_converges_at_iteration_zero(self):
        rng = np.random.default_rng(36)
        A = rng.standard_normal((6, 20)) * 0.1
        b = rng.standard_normal(6)
        lam = float(np.abs(A.T @ b).max()) * 1.5
        p = ProblemInstance(design=A, observations=b, lam=lam)
        report = ist_solve(p)
        assert report.converged
        assert report.outer_iters == 0
        assert report.relative_gap == 0.0

    def test_agrees_with_dal(self):
        rng = np.random.default_rng(37)
        p = gaussian_problem(rng, m=64, n=256)
        dal = solve(p, SolverConfig(outer_tolerance=1e-6))
        for rule in ("constant", "bb"):
            cfg = IstConfig(step_rule=rule, tolerance=1e-6, max_iters=100000)
            report = ist_solve(p, cfg)
            assert report.converged
            assert abs(report.primal_value - dal.primal_value) <= 1e-4 * dal.primal_value

    def test_wall_time_includes_own_spectral_estimate(self, monkeypatch):
        rng = np.random.default_rng(39)
        p = gaussian_problem(rng, m=16, n=64)
        estimate = baselines.estimate_spectral_norm_sq

        def slow_estimate(design):
            time.sleep(0.05)
            return estimate(design)

        monkeypatch.setattr(baselines, "estimate_spectral_norm_sq", slow_estimate)
        report = ist_solve(p, IstConfig(step_rule="constant"))
        assert report.wall_time_seconds >= 0.05

    def test_constant_step_descends_monotonically(self):
        # in the majorization regime tau <= 1/L every step is a descent step
        rng = np.random.default_rng(38)
        p = gaussian_problem(rng, m=16, n=64)
        cfg = IstConfig(step_rule="constant", tolerance=1e-6, max_iters=20000)
        report = ist_solve(p, cfg)
        trace = np.asarray(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_bb_meets_tolerance_where_constant_does(self):
        rng = np.random.default_rng(39)
        p = gaussian_problem(rng, m=16, n=64)
        const = ist_solve(p, IstConfig(step_rule="constant",
                                       tolerance=1e-5, max_iters=100000))
        bb = ist_solve(p, IstConfig(step_rule="bb", tolerance=1e-5, max_iters=100000))
        assert const.converged and bb.converged
        assert bb.relative_gap <= 1e-5
        assert bb.outer_iters <= const.outer_iters

    def test_max_iters_flags_non_convergence(self):
        rng = np.random.default_rng(40)
        p = gaussian_problem(rng)
        report = ist_solve(p, IstConfig(step_rule="bb", tolerance=1e-12, max_iters=3))
        assert not report.converged
        assert report.outer_iters == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rule", ["constant", "bb"])
    def test_nonfinite_initial_rejected(self, rule, value):
        p = ProblemInstance(design=np.eye(2), observations=[1.0, 2.0], lam=0.5)
        with pytest.raises(ValueError, match="w_initial"):
            ist_solve(p, IstConfig(step_rule=rule), w_initial=[0.0, value])

    def test_final_value_not_below_optimum(self):
        rng = np.random.default_rng(42)
        p = gaussian_problem(rng, m=16, n=48)
        report = ist_solve(p, IstConfig(step_rule="bb", tolerance=1e-8,
                                        max_iters=100000))
        _, f_star, _ = cd_lasso(p.design, p.observations, p.lam, gap_tol=1e-12)
        assert report.primal_value >= f_star * (1 - 1e-12)
        assert primal_objective(p, report.w_final) == pytest.approx(
            report.primal_value, rel=1e-12
        )


class TestBBNonmonotoneSafeguard:
    def test_poor_seed_that_oscillated_unsafeguarded_converges(self):
        # without the acceptance test the clamped BB step cycles here, its gap
        # swinging between ~0.005 and ~1.15
        p = generate(GenSpec(family="poor", m=256, seed=7)).problem
        report = ist_solve(p, IstConfig(step_rule="bb", tolerance=1e-3, max_iters=5000))
        assert report.converged
        assert report.relative_gap <= 1e-3
        trace = np.asarray(report.objective_trace)
        for k in range(1, trace.size):
            reference = trace[max(0, k - NONMONOTONE_MEMORY):k].max()
            assert trace[k] <= reference


class TestIstConfigValidation:
    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.inf, np.nan])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            IstConfig(tolerance=tol)

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError):
            IstConfig(step_rule="nesterov")

    def test_max_iters_must_be_a_positive_integer(self):
        for bad in (3.5, 0, "3"):
            with pytest.raises(ValueError):
                IstConfig(max_iters=bad)
        assert IstConfig(max_iters=np.int64(3)).max_iters == 3
