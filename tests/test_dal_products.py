"""Full-design product budget of a DAL solve and of a certificate, and the
A^T alpha reuse arguments.

A solve carries ``A^T alpha`` from each line search to the next Newton step
and refreshes it once per inner solve.  It makes one product with the whole
design at the start and one per outer iteration, and one per residual
duality-gap certificate, which it forms only once the certificate of its own
multiplier meets the tolerance.  A line search makes at most one full
product, or two when stale entries of the carried vector need one: when the
columns its step can lift above lam are few enough to gather, it reads only
those, so a sparse solve makes fewer full products than Newton steps.
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
from dalsparse import dal
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


def assert_within_budget(problem, tol):
    counted, counter = counting(problem)
    report = solve(counted, SolverConfig(outer_tolerance=tol, inner_variant="cholesky"))
    assert report.converged
    # The start and every refresh make one full product each.
    assert counter[0] >= report.outer_iters + 1
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
        # count falls below one per Newton step plus the start and refreshes.
        assert full_products < report.inner_newton_iters + report.outer_iters + 1


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
