"""Outer loop behavior: multiplier updates, full solves, variant agreement."""

import numpy as np
import pytest

from dalsparse import (
    GenSpec,
    NumericError,
    ProblemInstance,
    SolverConfig,
    dal,
    generate,
    inner_gradient,
    outer_update,
    primal_objective,
    project_linf,
    solve,
)
from oracles import cd_lasso
from test_dal_inner import multiplier_step


def gaussian_problem(rng, m=32, n=128, lam=0.025):
    A = rng.standard_normal((m, n)) / np.sqrt(2 * n)
    w0 = np.zeros(n)
    support = rng.choice(n, size=max(1, n // 25), replace=False)
    w0[support] = rng.choice([-1.0, 1.0], size=support.size)
    b = A @ w0 + rng.standard_normal(m) * 1e-2
    return ProblemInstance(design=A, observations=b, lam=lam)


class TestOuterUpdate:
    def test_zero_alpha_thresholds_w(self):
        p = ProblemInstance(design=np.eye(3), observations=np.zeros(3), lam=1.0)
        w = np.array([0.5, -2.0, 1.5])
        out = outer_update(w, np.zeros(3), 1.0, p)
        np.testing.assert_allclose(out, [0.0, -1.0, 0.5])
        below = outer_update(np.array([0.5, -0.5, 0.2]), np.zeros(3), 1.0, p)
        assert np.count_nonzero(below) == 0

    def test_1d_fixed_point_at_optimum(self):
        # at the optimum A^T alpha* = 1 = lam * sign(w*), so for any eta
        # ST_{eta}(1.25 + eta) returns exactly 1.25
        p = ProblemInstance(design=[[2.0]], observations=[3.0], lam=1.0)
        for eta in (0.5, 1.0, 7.0, 1e4):
            out = outer_update(np.array([1.25]), np.array([0.5]), eta, p)
            assert out[0] == pytest.approx(1.25, rel=1e-12)

    def test_three_forms_identity(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            m, n = 6, 15
            A = rng.standard_normal((m, n))
            p = ProblemInstance(design=A, observations=rng.standard_normal(m),
                                lam=rng.uniform(0.05, 1.0))
            w = rng.standard_normal(n)
            alpha = rng.standard_normal(m)
            eta = rng.uniform(0.1, 50)
            ata = A.T @ alpha
            via_st = outer_update(w, alpha, eta, p)
            via_proj = w + eta * (ata - project_linf(ata + w / eta, p.lam))
            scale = max(1.0, np.abs(via_st).max())
            assert np.abs(via_st - via_proj).max() <= 1e-12 * scale

    def test_thresholded_coordinates_are_exact_zeros(self):
        rng = np.random.default_rng(21)
        p = gaussian_problem(rng)
        w = rng.standard_normal(p.n)
        alpha = rng.standard_normal(p.m) * 0.01
        eta = 3.0
        out = outer_update(w, alpha, eta, p)
        mask = np.abs(w + eta * (p.design.T @ alpha)) <= p.lam * eta
        assert mask.any()
        assert np.all(out[mask] == 0.0)

    @pytest.mark.parametrize("eta", [0.0, np.inf, np.nan])
    def test_rejects_eta_not_finite_and_positive(self, eta):
        p = ProblemInstance(design=np.eye(2), observations=[1.0, 2.0], lam=0.5)
        with pytest.raises(ValueError, match="eta"):
            outer_update(np.ones(2), np.ones(2), eta, p)


class TestSolve:
    def test_lambda_dominated_single_outer_iteration(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((6, 20)) * 0.1
        b = rng.standard_normal(6)
        lam = float(np.abs(A.T @ b).max()) * 1.5
        p = ProblemInstance(design=A, observations=b, lam=lam)
        report = solve(p)
        assert report.converged
        assert report.outer_iters == 1
        assert report.relative_gap == 0.0
        assert np.count_nonzero(report.w_final) == 0
        assert report.nnz_fraction == 0.0

    def test_identity_design_matches_soft_threshold(self):
        # the objective is quadratically flat around w*, so w-accuracy 1e-6
        # needs a gap around 1e-12
        p = ProblemInstance(design=np.eye(2), observations=[3.0, 0.5], lam=1.0)
        report = solve(p, SolverConfig(outer_tolerance=1e-12))
        np.testing.assert_allclose(report.w_final, [2.0, 0.0], atol=1e-6)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(23)
        for variant in ("cholesky", "pcg"):
            cfg = SolverConfig(outer_tolerance=1e-6, inner_variant=variant)
            for _ in range(3):
                p = gaussian_problem(rng)
                report = solve(p, cfg)
                assert report.converged
                _, f_star, _ = cd_lasso(p.design, p.observations, p.lam, gap_tol=1e-10)
                assert report.primal_value <= f_star * (1 + 1e-6)
                assert abs(report.primal_value - f_star) <= 1e-6 * f_star

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            p = gaussian_problem(rng)
            report = solve(p, SolverConfig(outer_tolerance=1e-6))
            trace = np.asarray(report.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_final_gap_below_tolerance_and_consistent(self):
        rng = np.random.default_rng(25)
        p = gaussian_problem(rng)
        report = solve(p, SolverConfig(outer_tolerance=1e-4))
        assert report.converged
        assert report.relative_gap <= 1e-4
        assert report.gap_trace[-1] == report.relative_gap
        assert report.primal_value == pytest.approx(
            primal_objective(p, report.w_final), rel=1e-12
        )

    def test_variant_agreement(self):
        rng = np.random.default_rng(26)
        for _ in range(4):
            p = gaussian_problem(rng)
            w_chol = solve(p, SolverConfig(outer_tolerance=1e-6,
                                           inner_variant="cholesky")).w_final
            w_pcg = solve(p, SolverConfig(outer_tolerance=1e-6,
                                          inner_variant="pcg")).w_final
            bound = 1e-4 * (1 + np.abs(w_chol).max())
            assert np.abs(w_chol - w_pcg).max() <= bound

    def test_iterates_exactly_sparse(self):
        rng = np.random.default_rng(27)
        p = gaussian_problem(rng)
        report = solve(p, SolverConfig(outer_tolerance=1e-6))
        w = report.w_final
        assert np.all((w == 0.0) | (np.abs(w) > 1e-300))
        assert 0.0 <= report.nnz_fraction <= 1.0

    def test_random_initial_vector(self):
        rng = np.random.default_rng(28)
        p = gaussian_problem(rng)
        w_init = rng.standard_normal(p.n)
        report = solve(p, SolverConfig(outer_tolerance=1e-6), w_initial=w_init)
        assert report.converged
        _, f_star, _ = cd_lasso(p.design, p.observations, p.lam, gap_tol=1e-10)
        assert abs(report.primal_value - f_star) <= 1e-5 * f_star

    def test_non_convergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(29)
        p = gaussian_problem(rng)
        report = solve(p, SolverConfig(outer_tolerance=1e-12, max_outer=2))
        assert not report.converged
        assert report.outer_iters == 2
        assert report.relative_gap > 1e-12

    def test_inner_cap_hits_reported(self, monkeypatch):
        rng = np.random.default_rng(30)
        p = gaussian_problem(rng)
        monkeypatch.setattr(dal, "_MAX_INNER_NEWTON", 1)
        cfg = SolverConfig(outer_tolerance=1e-10, max_outer=6, eta_initial=1e6)
        report = solve(p, cfg)
        assert report.inner_cap_hits > 0

    def test_cap_hits_exclude_solves_that_stop_at_the_cap(self, monkeypatch):
        # A first-pass inner solve (progress factor 1.0) that uses all its
        # Newton steps is a cap hit only if it then misses its stop rule; on
        # this instance some meet it exactly at their last allowed step.
        # inner_solve's fourth value is that rule at the alpha it returns.
        p = generate(GenSpec(family="normal", m=64, seed=3)).problem
        real_inner_solve = dal.inner_solve
        calls = []

        def inner_solve(*args):
            result = real_inner_solve(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(dal, "inner_solve", inner_solve)
        monkeypatch.setattr(dal, "_MAX_INNER_NEWTON", 2)
        # From 1/lam: the Cholesky default of 16/lam has no cap hit here.
        report = solve(p, SolverConfig(eta_initial=1 / p.lam))
        assert report.converged
        full_first_passes = sum(args[6] == 1.0 and steps == 2
                                for args, (_, steps, _, _) in calls)
        assert 0 < report.inner_cap_hits < full_first_passes
        assert all(met for _, (_, steps, _, met) in calls if steps < 2)
        at_cap = [met for _, (_, steps, _, met) in calls if steps == 2]
        assert any(at_cap) and not all(at_cap)
        first_misses = [not met for args, (_, _, _, met) in calls if args[6] == 1.0]
        assert report.inner_cap_hits == sum(first_misses)
        checked = 0
        for (_, w, eta, eps, _, _, factor, _), (alpha, _, _, met) in calls:
            gnorm = np.linalg.norm(inner_gradient(p, w, eta, alpha))
            threshold = max(eps, factor * multiplier_step(p, w, eta, alpha))
            if abs(gnorm - threshold) <= 1e-9 * threshold:
                continue
            assert met == (gnorm <= threshold)
            checked += 1
        # Rounding can put at most a rare point that close to its threshold.
        assert checked >= len(calls) - 1

    def test_back_to_back_solves_match_solves_in_the_other_order(self):
        # No state outlives a solve (dal-chol keeps its Gram in the solve's
        # own state): two same-shaped problems, each generated anew and freed
        # after its solve, so a later one may reuse its id, give the same
        # reports whichever is solved first.
        def solved(order):
            reports = {}
            for seed in order:
                p = generate(GenSpec(family="normal", m=64, seed=seed)).problem
                reports[seed] = solve(p, SolverConfig(outer_tolerance=1e-6))
                del p
            return reports

        first, second = solved((1, 2)), solved((2, 1))
        for seed in (1, 2):
            a, b = first[seed], second[seed]
            assert a.converged and b.converged
            np.testing.assert_array_equal(a.w_final, b.w_final)
            assert (a.outer_iters, a.inner_newton_iters, a.gap_trace) == (
                b.outer_iters, b.inner_newton_iters, b.gap_trace)

    def test_wrong_initial_length_rejected(self):
        p = ProblemInstance(design=np.eye(2), observations=[1.0, 2.0], lam=0.5)
        with pytest.raises(ValueError):
            solve(p, w_initial=np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    def test_nonfinite_initial_rejected(self, variant, value):
        p = ProblemInstance(design=np.eye(2), observations=[1.0, 2.0], lam=0.5)
        with pytest.raises(ValueError, match="w_initial"):
            solve(p, SolverConfig(inner_variant=variant), w_initial=[value, 0.0])

    def test_nonfinite_data_raises_numeric_error(self):
        p = ProblemInstance(design=[[np.nan]], observations=[1.0], lam=0.5)
        with pytest.raises(NumericError):
            solve(p)


    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    def test_nonfinite_primal_raises_without_a_report(self, variant):
        # Opposite columns: A w = 0, while ||w||_1 = 3e308 overflows, and the
        # multiplier update leaves so large a w unchanged.
        p = ProblemInstance(design=[[1.0, -1.0]], observations=[1.0], lam=1.0)
        reports = []
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="primal objective became non-finite at outer step 1"
        ):
            reports.append(solve(p, SolverConfig(inner_variant=variant),
                                 w_initial=[1.5e308, 1.5e308]))
        assert reports == []

class TestFeasibleStart:
    """solve() starts its first inner problem at b scaled into the dual
    feasible set ||A^T alpha||_inf <= lam, with the matching A^T alpha."""

    def first_inner_call(self, monkeypatch, p, variant, w_initial):
        real_inner_solve = dal.inner_solve
        calls = []

        def inner_solve(*args):
            # The carried state is advanced in place: copy its product now.
            calls.append((args[4], args[7].design_t_alpha.copy()))
            return real_inner_solve(*args)

        monkeypatch.setattr(dal, "inner_solve", inner_solve)
        report = solve(p, SolverConfig(inner_variant=variant), w_initial)
        assert report.converged
        return calls[0]  # alpha_start, the carried A^T alpha

    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    @pytest.mark.parametrize("init", ["zero", "random"])
    def test_start_is_feasible_and_carries_its_product(self, monkeypatch, variant,
                                                       init):
        for seed in (1, 2):
            p = generate(GenSpec(family="normal", m=32, seed=seed)).problem
            assert np.abs(p.design.T @ p.observations).max() > p.lam
            rng = np.random.default_rng(seed)
            w_initial = rng.standard_normal(p.n) if init == "random" else None
            alpha, design_t_alpha = self.first_inner_call(monkeypatch, p, variant,
                                                          w_initial)
            exact = p.design.T @ alpha
            assert np.abs(exact).max() <= p.lam * (1 + 1e-12)
            np.testing.assert_allclose(design_t_alpha, exact, rtol=0,
                                       atol=1e-12 * np.abs(exact).max())

    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    @pytest.mark.parametrize("init", ["zero", "random"])
    @pytest.mark.parametrize("margin", [1.0 + 1e-9, 1.5])
    def test_start_is_b_when_already_feasible(self, monkeypatch, variant, init,
                                              margin):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((6, 20)) * 0.1
        b = rng.standard_normal(6)
        p = ProblemInstance(design=A, observations=b,
                            lam=float(np.abs(A.T @ b).max()) * margin)
        w_initial = rng.standard_normal(p.n) if init == "random" else None
        alpha, _ = self.first_inner_call(monkeypatch, p, variant, w_initial)
        assert np.array_equal(alpha, p.observations)


class TestSchedule:
    """Each outer iteration doubles eta up to 1e12 and halves the inner
    floor eps down to 1e-12, from the Cholesky default eta_1 = 16/lam and
    eps_1 = 1e-4*sqrt(m); both are exact in binary, so the first-pass inner
    solves see exactly these values."""

    def test_eta_doubles_and_eps_halves_to_their_caps(self, monkeypatch):
        p = generate(GenSpec(family="normal", m=16, seed=1)).problem
        real_inner_solve = dal.inner_solve
        first_passes = []

        def inner_solve(*args):
            if args[6] == 1.0:
                first_passes.append((args[2], args[3]))
            return real_inner_solve(*args)

        monkeypatch.setattr(dal, "inner_solve", inner_solve)
        report = solve(p, SolverConfig(outer_tolerance=1e-300, max_outer=40))
        assert report.outer_iters == len(first_passes) == 40
        eta, eps = first_passes[0]
        assert eta == 16.0 / p.lam
        assert eps == 1e-4 * np.sqrt(p.m)
        for eta_next, eps_next in first_passes[1:]:
            assert eta_next == min(2.0 * eta, 1e12)
            assert eps_next == max(eps / 2.0, 1e-12)
            eta, eps = eta_next, eps_next
        assert eta == 1e12 and eps == 1e-12


class TestSolverConfigValidation:
    @pytest.mark.parametrize("field", ["max_outer"])
    def test_caps_must_be_positive_integers(self, field):
        for bad in (2.5, 1.5, 0, -1, "3", True):
            with pytest.raises(ValueError):
                SolverConfig(**{field: bad})
        assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(inner_variant="qr")

    def test_negative_eta_initial_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(eta_initial=-1.0)

    @pytest.mark.parametrize("eta", [np.inf, np.nan])
    def test_eta_initial_must_be_finite(self, eta):
        with pytest.raises(ValueError, match="eta_initial must be finite and positive"):
            SolverConfig(eta_initial=eta)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.inf, np.nan])
    def test_outer_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="outer_tolerance"):
            SolverConfig(outer_tolerance=tol)
