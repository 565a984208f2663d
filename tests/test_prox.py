"""Operator-level tests: thresholding, projection, objectives, duality basics,
and the gather-or-full rule for single-pass column reads."""

import copy
import types

import numpy as np
import pytest

from dalsparse import (
    DualInfeasibleError,
    ProblemInstance,
    dual_objective,
    primal_objective,
    project_linf,
    soft_threshold,
)
from dalsparse.prox import _BLOCK_ELEMENTS, _gather_pays, _gathered_products
from oracles import cd_lasso


def tiny_1d():
    return ProblemInstance(design=[[2.0]], observations=[3.0], lam=1.0)


class TestProblemInstance:
    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            ProblemInstance(design=[[1.0]], observations=[1.0], lam=0.0)
        with pytest.raises(ValueError):
            ProblemInstance(design=[[1.0]], observations=[1.0], lam=-0.5)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_rejects_nonfinite_lambda(self, lam):
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(design=[[1.0]], observations=[1.0], lam=lam)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ProblemInstance(design=np.ones((3, 2)), observations=np.ones(2), lam=1.0)

    def test_design_stored_column_major(self):
        p = ProblemInstance(design=np.ones((3, 2)), observations=np.ones(3), lam=1.0)
        assert p.design.flags["F_CONTIGUOUS"]
        assert (p.m, p.n) == (3, 2)


class TestSoftThreshold:
    def test_case_split(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([2.0, 0.5, -3.0]), 1.0), [1.0, 0.0, -2.0]
        )

    def test_zero_threshold_is_identity(self):
        v = np.array([0.3, -4.0, 0.0, 1e-9])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_boundary_maps_to_exact_zero(self):
        lam = 0.025
        out = soft_threshold(np.array([lam, -lam]), lam)
        assert out[0] == 0.0 and out[1] == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -1e-12)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            soft_threshold(np.array([1.0, -2.0]), np.nan)

    def test_oddness(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(50)
        np.testing.assert_array_equal(
            soft_threshold(-v, 0.3), -soft_threshold(v, 0.3)
        )

    def test_nonexpansive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.standard_normal(20)
            v = rng.standard_normal(20)
            t = rng.uniform(0, 2)
            lhs = np.linalg.norm(soft_threshold(u, t) - soft_threshold(v, t))
            assert lhs <= np.linalg.norm(u - v) + 1e-12


class TestProjectLinf:
    def test_clamp(self):
        np.testing.assert_allclose(
            project_linf(np.array([2.0, 0.5, -3.0]), 1.0), [1.0, 0.5, -1.0]
        )

    def test_interior_point_fixed(self):
        v = np.array([0.2, -0.7, 0.0])
        np.testing.assert_array_equal(project_linf(v, 0.8), v)

    def test_scaling_identity(self):
        # eta * clamp(w, lam) equals clamp(eta*w, eta*lam)
        eta, lam = 2.0, 1.0
        w = np.array([3.0, -0.2])
        lhs = eta * project_linf(w, lam)
        rhs = project_linf(eta * w, eta * lam)
        np.testing.assert_allclose(lhs, [2.0, -0.4])
        np.testing.assert_array_equal(lhs, rhs)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            project_linf(np.array([1.0]), -0.1)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            project_linf(np.array([1.0, -2.0]), np.nan)

    def test_decomposition_identity(self):
        # exact up to one rounding of the shrink-then-add round trip
        eps = np.finfo(float).eps
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.standard_normal(17) * rng.uniform(0.1, 10)
            t = rng.uniform(0, 3)
            recon = soft_threshold(v, t) + project_linf(v, t)
            tol = 4 * eps * max(1.0, float(np.abs(v).max()), t)
            assert np.abs(recon - v).max() <= tol


class TestPrimalObjective:
    def test_zero_w_leaves_half_b_norm(self):
        p = ProblemInstance(design=np.eye(2), observations=[3.0, 0.5], lam=1.0)
        assert primal_objective(p, np.zeros(2)) == pytest.approx(4.625)

    def test_1d_optimizer_value(self):
        # subgradient stationarity 4w - 6 + sign(w) = 0 gives w = 1.25
        assert primal_objective(tiny_1d(), [1.25]) == pytest.approx(1.375)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            primal_objective(tiny_1d(), [1.0, 2.0])


class TestDualObjective:
    def test_zero_alpha_is_zero(self):
        assert dual_objective(tiny_1d(), [0.0]) == 0.0

    def test_alpha_b_certifies_zero_solution(self):
        # lam >= ||A^T b||_inf makes alpha = b feasible and matches f(0)
        p = ProblemInstance(design=[[0.2]], observations=[3.0], lam=1.0)
        assert dual_objective(p, [3.0]) == pytest.approx(4.5)
        assert primal_objective(p, [0.0]) == pytest.approx(4.5)

    def test_strong_duality_1d(self):
        assert dual_objective(tiny_1d(), [0.5]) == pytest.approx(1.375)

    def test_infeasible_alpha_rejected(self):
        with pytest.raises(DualInfeasibleError):
            dual_objective(tiny_1d(), [2.0])  # ||A^T alpha||_inf = 4 > 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_alpha_rejected(self, value):
        p = ProblemInstance(design=[[2.0, 0.0], [0.0, 0.0]],
                            observations=[3.0, 1.0], lam=1.0)
        for alpha in ([value, 0.0], [0.0, value]):
            with np.errstate(invalid="ignore", over="ignore"):
                with pytest.raises(DualInfeasibleError):
                    dual_objective(p, alpha)

    def test_weak_duality_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m, n = rng.integers(2, 8), rng.integers(2, 20)
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            lam = rng.uniform(0.05, 2.0)
            p = ProblemInstance(design=A, observations=b, lam=lam)
            for _ in range(25):
                w = rng.standard_normal(n)
                alpha = rng.standard_normal(m)
                corr = np.abs(A.T @ alpha).max()
                if corr > 0:
                    alpha *= 0.999 * lam / max(corr, lam)
                assert (
                    primal_objective(p, w) - dual_objective(p, alpha) >= -1e-12
                )


class TestZeroSolutionCriterion:
    def test_both_directions_against_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            A = rng.standard_normal((5, 12))
            b = rng.standard_normal(5)
            crit = np.abs(A.T @ b).max()
            w_hi, _, _ = cd_lasso(A, b, 1.01 * crit)
            assert np.count_nonzero(w_hi) == 0
            w_lo, _, _ = cd_lasso(A, b, 0.9 * crit)
            assert np.count_nonzero(w_lo) > 0


class OperandSizes(np.ndarray):
    """A view of a design matrix that records the size of each of its views
    that enters a matrix product."""

    sizes = None

    def __array_finalize__(self, obj):
        self.sizes = getattr(obj, "sizes", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            self.sizes.extend(x.size for x in inputs if isinstance(x, OperandSizes))
        plain = tuple(
            x.view(np.ndarray) if isinstance(x, OperandSizes) else x for x in inputs
        )
        return getattr(ufunc, method)(*plain, **kwargs)


def recording(problem):
    """A copy of ``problem`` whose design records its product operand sizes."""
    design = problem.design.view(OperandSizes)
    design.sizes = []
    recorded = copy.copy(problem)
    object.__setattr__(recorded, "design", design)
    return recorded, design.sizes


class TestGatherRule:
    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(27)
        return ProblemInstance(rng.standard_normal((1024, 4096)), rng.standard_normal(1024),
                               lam=1.0)

    @pytest.mark.parametrize("width", [None, 2])
    def test_gathered_products_match_in_blocks(self, wide, width):
        p, rng = wide, np.random.default_rng(28)
        cols = rng.choice(p.n, size=p.n // 4, replace=False)
        vectors = rng.standard_normal(p.m if width is None else (p.m, width))
        recorded, sizes = recording(p)
        out = _gathered_products(recorded, cols, vectors)
        expected = p.design[:, cols].T @ vectors
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        # Two blocks of 512 columns at m=1024, none larger than a block.
        assert len(sizes) == 2
        assert max(sizes) <= _BLOCK_ELEMENTS

    def test_too_many_columns_make_no_product(self, wide):
        p, rng = wide, np.random.default_rng(29)
        cols = rng.choice(p.n, size=p.n // 4 + 1, replace=False)
        recorded, sizes = recording(p)
        assert _gathered_products(recorded, cols, rng.standard_normal(p.m)) is None
        assert sizes == []

    @pytest.mark.parametrize("n", [40, 4096])
    def test_gathers_up_to_a_quarter_of_the_columns_or_16(self, n):
        shape = types.SimpleNamespace(m=n // 4, n=n)
        k = max(16, n // 4)
        assert _gather_pays(shape, k)
        assert not _gather_pays(shape, k + 1)

    def test_no_cap_on_the_gathered_copy(self):
        # The shape of a 2 GiB normal design: a quarter of its columns gather.
        assert _gather_pays(types.SimpleNamespace(m=8192, n=32768), 8192)
