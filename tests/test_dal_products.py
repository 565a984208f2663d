"""Full-design product budget of a DAL solve and of a certificate, the
A^T alpha reuse arguments, and the A^T alpha a solve carries.

A solve carries one ``A^T alpha`` from its start to its end: exact on the
columns that can be active, and bounded by lam elsewhere.  It makes one
product with the whole design at the start of a problem's first solve
(``A^T b``, cached on the problem), and one per residual duality-gap
certificate, which it forms only once the certificate of its own
multiplier meets the tolerance.  A line search makes at most one full
product, or two when stale entries of the carried vector need one: when the
columns its step can lift above lam are few enough to gather, it reads only
those, so a sparse solve makes fewer full products than Newton steps.  The
first search from ``w = 0`` makes none.  Between outer iterations the carried
vector makes one only when the stale columns it must make exact are too many
to gather.
"""

import copy

import numpy as np
import pytest

from dalsparse import (
    GenSpec,
    SolverConfig,
    dual_certificate,
    dual_objective,
    generate,
    inner_workspace,
    outer_update,
    primal_objective,
    solve,
)
from dalsparse import dal, prox
from dalsparse.dal import _residual


class CountingDesign(np.ndarray):
    """A view of a design matrix that counts matrix products with all of it."""

    counter = None
    full_size = 0

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)
        self.full_size = getattr(obj, "full_size", 0)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            for x in inputs:
                if isinstance(x, CountingDesign) and x.size == x.full_size:
                    x.counter[0] += 1
                    break
        plain = tuple(
            x.view(np.ndarray) if isinstance(x, CountingDesign) else x for x in inputs
        )
        if "out" in kwargs:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, CountingDesign) else x
                for x in kwargs["out"]
            )
        return getattr(ufunc, method)(*plain, **kwargs)


def counting(problem):
    """A copy of ``problem`` whose design counts full products into a list."""
    counter = [0]
    design = problem.design.view(CountingDesign)
    design.counter = counter
    design.full_size = problem.design.size
    counted = copy.copy(problem)
    object.__setattr__(counted, "design", design)
    return counted, counter


def assert_within_budget(problem, tol, variant="cholesky", w_initial=None):
    counted, counter = counting(problem)
    report = solve(counted, SolverConfig(outer_tolerance=tol, inner_variant=variant),
                   w_initial)
    assert report.converged
    # The start's A^T b, and at least one residual certificate.
    assert counter[0] >= 2
    budget = report.inner_newton_iters + 3 * report.outer_iters + 4
    assert counter[0] <= budget, (counter[0], report.inner_newton_iters, report.outer_iters)
    return report, counter[0]


class TestProductBudget:
    @pytest.mark.parametrize("seed", range(1, 21))
    def test_normal_tight(self, seed):
        p = generate(GenSpec(family="normal", m=64, seed=seed)).problem
        assert_within_budget(p, 1e-6)

    def test_largescale(self):
        p = generate(GenSpec(family="largescale", n=4096, seed=1)).problem
        report, full_products = assert_within_budget(p, 1e-3)
        # Line searches over few enough columns gather them instead, so the
        # count falls below one per Newton step plus one per outer iteration.
        assert full_products < report.inner_newton_iters + report.outer_iters + 1

    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family, size", [
        ("normal", dict(m=64)), ("poor", dict(m=64)), ("largescale", dict(n=4096)),
    ], ids=["normal-64", "poor-64", "largescale-4096"])
    def test_dense_start(self, family, size, seed, variant):
        """From a dense random w most columns start active; their workspaces
        gather them, so inner products add no full product."""
        p = generate(GenSpec(family=family, seed=seed, **size)).problem
        w_initial = np.random.default_rng(seed).standard_normal(p.n)
        assert_within_budget(p, 1e-6, variant, w_initial)

    def test_later_solves_reuse_the_problems_design_t_b(self):
        p = generate(GenSpec(family="largescale", n=4096, seed=1)).problem
        counted, counter = counting(p)
        config = SolverConfig(inner_variant="cholesky")
        solve(counted, config)
        first = counter[0]
        solve(counted, config)
        assert counter[0] - first == first - 1


def assert_within_certified_budget(problem, tol, monkeypatch):
    certificates = [0]
    gap = dal.relative_duality_gap

    def counted_gap(*args, **kwargs):
        certificates[0] += 1
        return gap(*args, **kwargs)

    monkeypatch.setattr(dal, "relative_duality_gap", counted_gap)
    counted, counter = counting(problem)
    report = solve(counted, SolverConfig(outer_tolerance=tol, inner_variant="cholesky"))
    assert report.converged
    assert 1 <= certificates[0] <= report.outer_iters
    budget = report.inner_newton_iters + report.outer_iters + 2 * certificates[0] + 2
    assert counter[0] <= budget, (
        counter[0], report.inner_newton_iters, report.outer_iters, certificates[0]
    )


class TestCertifiedProductBudget:
    """Residual certificates are formed only after the multiplier's own gap
    passes, and cost no feasibility product."""

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_normal_tight(self, seed, monkeypatch):
        p = generate(GenSpec(family="normal", m=64, seed=seed)).problem
        assert_within_certified_budget(p, 1e-6, monkeypatch)

    def test_largescale(self, monkeypatch):
        p = generate(GenSpec(family="largescale", n=4096, seed=1)).problem
        assert_within_certified_budget(p, 1e-3, monkeypatch)


class TestDualCertificateProducts:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_product_given_both_reuse_arguments(self, seed):
        p = generate(GenSpec(family="normal", m=64, seed=seed)).problem
        rng = np.random.default_rng(seed)
        w = np.where(rng.random(p.n) < 0.1, rng.standard_normal(p.n), 0.0)
        residual = p.design @ w - p.observations
        design_t_residual = p.design.T @ residual
        counted, counter = counting(p)
        cert = dual_certificate(counted, w, residual, design_t_residual)
        assert counter[0] == 0
        expected = dual_objective(p, cert.alpha_hat)
        assert cert.dual_value == pytest.approx(expected, rel=1e-12, abs=0)


RESIDUAL_FORMS = ["_residual", "primal_objective", "dual_certificate"]
DENSITIES = [0.0, 0.1, 1.0]


@pytest.fixture
def problem_and_point():
    p = generate(GenSpec(family="normal", m=64, seed=5)).problem
    rng = np.random.default_rng(0)
    alpha = rng.standard_normal(p.m)
    w = np.where(rng.random(p.n) < 0.1, rng.standard_normal(p.n), 0.0)
    return p, w, alpha


class TestReuseArguments:
    def test_inner_workspace(self, problem_and_point):
        p, w, alpha = problem_and_point
        plain = inner_workspace(p, w, 3.0, alpha)
        reused = inner_workspace(p, w, 3.0, alpha, design_t_alpha=p.design.T @ alpha)
        np.testing.assert_array_equal(plain.q, reused.q)
        np.testing.assert_array_equal(plain.active, reused.active)
        np.testing.assert_array_equal(plain.active_cols, reused.active_cols)

    def test_outer_update(self, problem_and_point):
        p, w, alpha = problem_and_point
        plain = outer_update(w, alpha, 3.0, p)
        reused = outer_update(w, alpha, 3.0, p, design_t_alpha=p.design.T @ alpha)
        np.testing.assert_array_equal(plain, reused)

    # The _residual cases are named by density alone.
    @pytest.mark.parametrize(
        "form, density",
        [(f, d) for f in RESIDUAL_FORMS for d in DENSITIES],
        ids=[str(d) if f == "_residual" else f"{f}-{d}"
             for f in RESIDUAL_FORMS for d in DENSITIES],
    )
    def test_residual_over_nonzero_columns(self, problem_and_point, form, density):
        """``A w - b``, and the objective and certificate built on it, read only
        the nonzero columns of a sparse ``w``: no full ``A w`` product."""
        p, _, _ = problem_and_point
        rng = np.random.default_rng(1)
        w = np.where(rng.random(p.n) < density, rng.standard_normal(p.n), 0.0)
        expected = p.design @ w - p.observations
        counted, counter = counting(p)
        if form == "_residual":
            np.testing.assert_allclose(
                _residual(counted, w), expected, rtol=0,
                atol=1e-12 * np.linalg.norm(expected),
            )
            transposed_products = 0
        else:
            f = 0.5 * float(expected @ expected) + p.lam * float(np.abs(w).sum())
            if form == "primal_objective":
                value = primal_objective(counted, w)
                transposed_products = 0
            else:
                value = dual_certificate(counted, w).primal_value
                transposed_products = 1  # A^T (A w - b)
            assert value == pytest.approx(f, rel=1e-12, abs=0)
        full_aw_products = 1 if density == 1.0 else 0
        assert counter[0] == full_aw_products + transposed_products


# (family, size, seed, random start, variant, makes a descent retry, has a
# rebase that makes stale columns exact): zero- and random-init starts, and
# solves that retry, lift stale bounds above lam, or both.
CARRIED_CASES = [
    ("normal", dict(m=64), 2, False, "cholesky", False, True),
    ("normal", dict(m=64), 5, False, "pcg", True, False),
    ("normal", dict(m=32), 5, True, "pcg", False, True),
    ("poor", dict(m=64), 8, True, "cholesky", True, False),
    ("poor", dict(m=64), 8, True, "pcg", True, True),
    ("largescale", dict(n=4096), 1, False, "cholesky", False, False),
]
CARRIED_IDS = [
    f"{family}-{next(iter(size.values()))}-{seed}-{'random' if rand else 'zero'}-{variant}"
    for family, size, seed, rand, variant, _, _ in CARRIED_CASES
]


def watched_solve(monkeypatch, case, after_inner=None, on_workspace=None):
    """Solve ``case`` at tol 1e-6 with ``dal.inner_solve`` and
    ``dal.inner_workspace`` wrapped, and check that it converges, makes a
    descent retry (an inner solve with a progress factor below 1) and has a
    rebase make stale columns exact exactly when the case says so.

    ``after_inner(p, args, result)`` sees every inner solve's positional
    arguments (the carried state is ``args[7]``) and its result;
    ``on_workspace(p, carried, args)`` sees every workspace built from the
    carried vector, before it is built.
    """
    family, size, seed, random_start, variant, retries, lifts = case
    p = generate(GenSpec(family=family, seed=seed, **size)).problem
    w_initial = np.random.default_rng(seed).standard_normal(p.n) if random_start else None
    real_inner_solve, real_workspace = dal.inner_solve, dal.inner_workspace
    real_rebase = dal._CarriedProduct.rebase
    carried, factors, lifted = [], [], []

    def inner_solve(*args):
        carried[:] = [args[7]]
        factors.append(args[6])
        result = real_inner_solve(*args)
        if after_inner is not None:
            after_inner(p, args, result)
        return result

    def inner_workspace(*args):
        if on_workspace is not None and carried and args[4] is carried[0].design_t_alpha:
            on_workspace(p, carried[0], args)
        return real_workspace(*args)

    def rebase(self, *args):
        stale = ~self.exact
        real_rebase(self, *args)
        lifted.append(int(np.count_nonzero(self.exact[stale])))

    monkeypatch.setattr(dal, "inner_solve", inner_solve)
    monkeypatch.setattr(dal, "inner_workspace", inner_workspace)
    monkeypatch.setattr(dal._CarriedProduct, "rebase", rebase)
    # The cases were picked on the schedule from 1/lam, where each reaches
    # the retries and lifts it names; the Cholesky default of 16/lam may not.
    config = SolverConfig(eta_initial=1 / p.lam, outer_tolerance=1e-6, inner_variant=variant)
    report = solve(p, config, w_initial)
    assert report.converged
    assert (min(factors) < 1.0) == retries
    assert (max(lifted) > 0) == lifts


class TestCarriedProduct:
    """solve() carries one A^T alpha for the whole solve: exact, within
    rounding, where ``exact`` is set, and elsewhere bounded so that the
    column is inactive."""

    @pytest.mark.parametrize("case", CARRIED_CASES, ids=CARRIED_IDS)
    def test_matches_a_fresh_product_after_every_inner_solve(self, monkeypatch, case):
        def check(p, args, result):
            _, w, eta = args[:3]
            carried = args[7]
            fresh = p.design.T @ result[0]
            np.testing.assert_array_equal(carried.shift, w / eta)
            exact, stale = carried.exact, ~carried.exact
            np.testing.assert_allclose(
                carried.design_t_alpha[exact], fresh[exact], rtol=0, atol=1e-12 * p.lam
            )
            bound = np.abs(fresh[stale] + carried.shift[stale])
            assert np.all(bound <= carried.upper[stale] + 1e-12 * p.lam)
            assert np.all(carried.upper[stale] <= p.lam)

        watched_solve(monkeypatch, case, after_inner=check)

    @pytest.mark.parametrize("case", CARRIED_CASES, ids=CARRIED_IDS)
    def test_no_stale_column_can_be_active_when_a_workspace_is_built(self, monkeypatch,
                                                                     case):
        def check(p, carried, args):
            _, w, eta, alpha, _ = args
            np.testing.assert_array_equal(carried.shift, w / eta)
            stale = ~carried.exact
            assert np.all(carried.upper[stale] <= p.lam)
            # So the workspace's active set is a fresh product's, up to
            # columns within rounding of lam.
            fresh = np.abs(p.design.T @ alpha + w / eta)
            q = np.abs(carried.design_t_alpha + w / eta)
            clear = np.abs(fresh - p.lam) > 1e-12 * p.lam
            np.testing.assert_array_equal((q > p.lam)[clear], (fresh > p.lam)[clear])

        watched_solve(monkeypatch, case, on_workspace=check)

    def test_rebase_makes_exact_the_stale_columns_it_lifts_above_lam(self):
        p = generate(GenSpec(family="normal", m=32, seed=1)).problem
        rng = np.random.default_rng(0)
        alpha = 1e-3 * rng.standard_normal(p.m)
        fresh = p.design.T @ alpha
        carried = dal._CarriedProduct.start(np.zeros(p.n), fresh)
        # Columns 0-9 stale with a bound of 0.9*lam, their entries garbage.
        stale = np.arange(10)
        carried.exact[stale] = False
        carried.upper[stale] = 0.9 * p.lam
        carried.design_t_alpha[stale] = 1e9
        shift = np.zeros(p.n)
        shift[:4] = 0.2 * p.lam  # lifts the bounds of columns 0-3 above lam
        shift[4:6] = 0.05 * p.lam  # and those of 4-5 to 0.95*lam
        counted, counter = counting(p)
        carried.rebase(counted, alpha, shift)
        assert counter[0] == 0  # four columns are gathered
        exact = np.ones(p.n, bool)
        exact[4:10] = False
        np.testing.assert_array_equal(carried.exact, exact)
        np.testing.assert_allclose(carried.design_t_alpha[exact], fresh[exact], rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(carried.upper[:4], np.abs(fresh[:4] + shift[:4]))
        np.testing.assert_allclose(carried.upper[4:6], 0.95 * p.lam)
        np.testing.assert_array_equal(carried.upper[6:10], 0.9 * p.lam)

    def test_rebase_makes_one_full_product_when_gathering_does_not_pay(self):
        p = generate(GenSpec(family="normal", m=32, seed=1)).problem
        alpha = 1e-3 * np.random.default_rng(0).standard_normal(p.m)
        fresh = p.design.T @ alpha
        carried = dal._CarriedProduct.start(np.zeros(p.n), fresh)
        carried.exact[:] = False
        carried.upper[:] = 0.9 * p.lam
        carried.design_t_alpha[:] = 1e9
        shift = np.full(p.n, 0.2 * p.lam)  # every column lifted: n > n/4
        counted, counter = counting(p)
        carried.rebase(counted, alpha, shift)
        assert counter[0] == 1
        assert carried.exact.all()
        np.testing.assert_allclose(carried.design_t_alpha, fresh, rtol=0, atol=1e-15)
        np.testing.assert_allclose(carried.upper, np.abs(fresh + shift))

    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    def test_first_line_search_from_zero_makes_no_full_product(self, monkeypatch,
                                                               variant):
        p = generate(GenSpec(family="largescale", n=4096, seed=1)).problem
        counted, counter = counting(p)
        real_line_search = dal._line_search
        searches = []

        def line_search(ws, direction, grad, carried):
            # The columns the sphere test flags: too many to gather.
            reach = np.linalg.norm(direction) * p._column_norms
            flagged = int(np.count_nonzero(carried.upper + reach > p.lam))
            before = counter[0]
            result = real_line_search(ws, direction, grad, carried)
            searches.append((ws.active.size, flagged, counter[0] - before))
            return result

        monkeypatch.setattr(dal, "_line_search", line_search)
        report = solve(counted, SolverConfig(inner_variant=variant))
        assert report.converged
        active, flagged, products = searches[0]
        assert active == 0
        assert not prox._gather_pays(p, flagged)
        assert products == 0

    # Not normal m=64 seeds 1 or 5: there the feasible start's largest |q_j|
    # rounds just above lam, so the first workspace has one active column.
    @pytest.mark.parametrize("variant", ["cholesky", "pcg"])
    @pytest.mark.parametrize("family, size, seed", [
        ("normal", dict(m=64), 2), ("poor", dict(m=64), 1), ("largescale", dict(n=4096), 1),
    ], ids=["normal-64-2", "poor-64-1", "largescale-4096-1"])
    def test_first_search_takes_design_t_d_from_design_t_b(self, monkeypatch, family,
                                                           size, seed, variant):
        """From w = 0 the first search starts at an empty active set, so d is
        b - alpha: it makes no full product and leaves every entry exact."""
        p = generate(GenSpec(family=family, seed=seed, **size)).problem
        # Filled before the copy, so the solve reads them from its cache.
        p._design_t_b, p._column_norms
        counted, counter = counting(p)
        real_line_search = dal._line_search
        searches = []

        def line_search(ws, direction, grad, carried):
            before = counter[0]
            result = real_line_search(ws, direction, grad, carried)
            searches.append((ws.active.size, counter[0] - before, bool(carried.exact.all())))
            return result

        monkeypatch.setattr(dal, "_line_search", line_search)
        assert solve(counted, SolverConfig(inner_variant=variant)).converged
        assert searches[0] == (0, 0, True)
