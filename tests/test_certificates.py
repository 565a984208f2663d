"""Feasible-point construction and relative-gap behavior."""

from dataclasses import astuple

import numpy as np
import pytest

from dalsparse import (
    GenSpec,
    IstConfig,
    ProblemInstance,
    SolverConfig,
    backtracking_line_search,
    dual_certificate,
    dual_objective,
    feasible_dual_point,
    generate,
    inner_gradient,
    inner_objective,
    inner_solve,
    inner_workspace,
    ist_solve,
    ist_step,
    newton_direction_cholesky,
    newton_direction_pcg,
    outer_update,
    primal_objective,
    relative_duality_gap,
    solve,
)
from oracles import cd_lasso


def random_problem(rng, m=8, n=32, lam=0.05):
    A = rng.standard_normal((m, n)) / np.sqrt(2 * n)
    b = rng.standard_normal(m)
    return ProblemInstance(design=A, observations=b, lam=lam)


def test_sign_orientation_pinned_by_1d_optimum():
    # The dual maximizer of the tiny instance A=[2], b=[3], lam=1 is
    # alpha* = b - A w* = 0.5 with value 1.375 = f(w*).  The certificate must
    # reproduce it at w* so the gap vanishes there; the opposite orientation
    # would evaluate to -1.625 and never certify convergence.
    p = ProblemInstance(design=[[2.0]], observations=[3.0], lam=1.0)
    alpha_hat = feasible_dual_point(p, [1.25])
    np.testing.assert_allclose(alpha_hat, [0.5], atol=1e-12)
    assert dual_objective(p, alpha_hat) == 1.375
    assert relative_duality_gap(p, [1.25]) == 0.0


def test_feasible_by_construction_for_arbitrary_w():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_problem(rng, m=rng.integers(2, 10), n=rng.integers(2, 40))
        w = rng.standard_normal(p.n) * rng.uniform(0.1, 10)
        alpha_hat = feasible_dual_point(p, w)
        corr = np.abs(p.design.T @ alpha_hat).max()
        assert corr <= p.lam * (1 + 1e-9)


def test_boundary_tight_when_residual_correlation_exceeds_lambda():
    rng = np.random.default_rng(8)
    p = random_problem(rng, lam=1e-3)
    w = rng.standard_normal(p.n)
    alpha_hat = feasible_dual_point(p, w)
    corr = np.abs(p.design.T @ alpha_hat).max()
    assert abs(corr - p.lam) <= 1e-12 * p.lam


def test_zero_correlation_residual_returned_unscaled():
    # A w - b in the null space of A^T: 1x1 with w at the least-squares point
    p = ProblemInstance(design=[[2.0]], observations=[3.0], lam=1.0)
    alpha_hat = feasible_dual_point(p, [1.5])  # residual exactly 0
    np.testing.assert_array_equal(alpha_hat, [0.0])


def test_gap_at_oracle_optimum_small():
    rng = np.random.default_rng(9)
    p = random_problem(rng)
    w_star, f_star, _ = cd_lasso(p.design, p.observations, p.lam, gap_tol=1e-12)
    assert relative_duality_gap(p, w_star) <= 1e-6
    assert abs(primal_objective(p, w_star) - f_star) <= 1e-12 * (1 + abs(f_star))


def test_gap_soundness_small_gap_implies_near_optimal():
    rng = np.random.default_rng(10)
    for _ in range(5):
        p = random_problem(rng)
        w_star, f_star, _ = cd_lasso(p.design, p.observations, p.lam, gap_tol=1e-12)
        cert = dual_certificate(p, w_star)
        assert cert.relative_gap <= 1e-9
        assert cert.primal_value <= f_star * (1 + 1e-9)


def test_zero_problem_gap_is_zero_by_floor_rule():
    p = ProblemInstance(design=[[1.0]], observations=[0.0], lam=1.0)
    assert relative_duality_gap(p, [0.0]) == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_w_is_never_certified(value):
    rng = np.random.default_rng(11)
    p = random_problem(rng)
    w = np.zeros(p.n)
    w[3] = value
    with np.errstate(invalid="ignore", over="ignore"):
        assert relative_duality_gap(p, w) == np.inf
        assert dual_certificate(p, w).relative_gap == np.inf


def test_nan_design_is_never_certified():
    """A NaN in ``A^T c`` must not read as a correlation within lam: the
    scaled candidate is NaN and the gap ``inf``, even at w = 0."""
    rng = np.random.default_rng(12)
    p = random_problem(rng)
    design = p.design.copy()
    design[0, 0] = np.nan
    p = ProblemInstance(design=design, observations=p.observations, lam=p.lam)
    assert relative_duality_gap(p, np.zeros(p.n)) == np.inf
    assert dual_certificate(p, np.zeros(p.n)).relative_gap == np.inf


def _argument(name, size):
    """A value of the vector argument ``name`` with ``size`` entries.

    A primal vector gets three nonzeros: few enough that A w is formed from
    the gathered columns, which a w one entry short or long would otherwise
    index without error.  A dual vector is small enough to be feasible.
    """
    if name.startswith("w"):
        v = np.zeros(size)
        v[:3] = 1.0
        return v
    return 1e-3 * np.linspace(-1.0, 1.0, size)


def _w(p):
    return _argument("w", p.n)


def _alpha(p):
    return _argument("alpha", p.m)


def _workspace(ws):
    return ws.q, ws.active, ws.shrunk


def _report(report):
    return report.w_final, tuple(report.gap_trace), report.outer_iters


# Every public function that takes a problem and a vector, once per vector
# argument: (argument, call(p, value)), the other arguments filled in.
_SHORT = SolverConfig(max_outer=3)
VECTOR_CALLS = {
    "dual_certificate": ("w", lambda p, v: astuple(dual_certificate(p, v))),
    "relative_duality_gap": ("w", relative_duality_gap),
    "feasible_dual_point": ("w", feasible_dual_point),
    "primal_objective": ("w", primal_objective),
    "ist_step": ("w", lambda p, v: ist_step(p, v, 1.0)),
    "dual_objective-alpha": ("alpha", dual_objective),
    "ist_solve-w_initial": (
        "w_initial", lambda p, v: _report(ist_solve(p, IstConfig(max_iters=20), v))
    ),
    "solve-w_initial": ("w_initial", lambda p, v: _report(solve(p, _SHORT, v))),
    "inner_workspace-w": ("w", lambda p, v: _workspace(inner_workspace(p, v, 1.0, _alpha(p)))),
    "inner_workspace-alpha": (
        "alpha", lambda p, v: _workspace(inner_workspace(p, _w(p), 1.0, v))
    ),
    "inner_objective-w": ("w", lambda p, v: inner_objective(p, v, 1.0, _alpha(p))),
    "inner_objective-alpha": ("alpha", lambda p, v: inner_objective(p, _w(p), 1.0, v)),
    "inner_gradient-w": ("w", lambda p, v: inner_gradient(p, v, 1.0, _alpha(p))),
    "inner_gradient-alpha": ("alpha", lambda p, v: inner_gradient(p, _w(p), 1.0, v)),
    "newton_direction_cholesky-w": (
        "w", lambda p, v: newton_direction_cholesky(p, v, 1.0, _alpha(p), _alpha(p))
    ),
    "newton_direction_cholesky-alpha": (
        "alpha", lambda p, v: newton_direction_cholesky(p, _w(p), 1.0, v, _alpha(p))
    ),
    "newton_direction_cholesky-grad": (
        "grad", lambda p, v: newton_direction_cholesky(p, _w(p), 1.0, _alpha(p), v)
    ),
    "newton_direction_pcg-w": (
        "w", lambda p, v: newton_direction_pcg(p, v, 1.0, _alpha(p), _alpha(p), 1e-8, 50)
    ),
    "newton_direction_pcg-alpha": (
        "alpha", lambda p, v: newton_direction_pcg(p, _w(p), 1.0, v, _alpha(p), 1e-8, 50)
    ),
    "newton_direction_pcg-grad": (
        "grad", lambda p, v: newton_direction_pcg(p, _w(p), 1.0, _alpha(p), v, 1e-8, 50)
    ),
    "backtracking_line_search-w": (
        "w", lambda p, v: backtracking_line_search(p, v, 1.0, _alpha(p), _alpha(p))
    ),
    "backtracking_line_search-alpha": (
        "alpha", lambda p, v: backtracking_line_search(p, _w(p), 1.0, v, _alpha(p))
    ),
    "backtracking_line_search-direction": (
        "direction", lambda p, v: backtracking_line_search(p, _w(p), 1.0, _alpha(p), v)
    ),
    "inner_solve-w": ("w", lambda p, v: inner_solve(p, v, 1.0, 1e-8, _alpha(p), _SHORT)),
    "inner_solve-alpha_start": (
        "alpha_start", lambda p, v: inner_solve(p, _w(p), 1.0, 1e-8, v, _SHORT)
    ),
    "outer_update-w": ("w", lambda p, v: outer_update(v, _alpha(p), 1.0, p)),
    "outer_update-alpha": ("alpha", lambda p, v: outer_update(_w(p), v, 1.0, p)),
    # The reuse arguments: products a solver loop already holds.
    "inner_workspace-design_t_alpha": (
        "design_t_alpha",
        lambda p, v: _workspace(inner_workspace(p, _w(p), 1.0, _alpha(p), v)),
    ),
    "outer_update-design_t_alpha": (
        "design_t_alpha", lambda p, v: outer_update(_w(p), _alpha(p), 1.0, p, v)
    ),
    "dual_certificate-residual": (
        "residual", lambda p, v: astuple(dual_certificate(p, _w(p), v))
    ),
    "dual_certificate-design_t_residual": (
        "design_t_residual", lambda p, v: astuple(dual_certificate(p, _w(p), None, v))
    ),
    "relative_duality_gap-residual": (
        "residual", lambda p, v: relative_duality_gap(p, _w(p), v)
    ),
    "relative_duality_gap-design_t_residual": (
        "design_t_residual", lambda p, v: relative_duality_gap(p, _w(p), None, v)
    ),
}


def _size(p, argument):
    """n for a primal vector or an A^T product, m for a dual one."""
    return p.n if argument.startswith(("w", "design_t")) else p.m


@pytest.mark.parametrize("extra", [-1, 1], ids=["n-1", "n+1"])
@pytest.mark.parametrize("evaluate", list(VECTOR_CALLS.values()), ids=list(VECTOR_CALLS))
def test_wrong_length_w_rejected(evaluate, extra):
    # A primal argument one entry short or long (n-1, n+1), or a dual one
    # (m-1, m+1), is named in a ValueError.
    argument, call = evaluate
    p = random_problem(np.random.default_rng(13), n=40)
    with pytest.raises(ValueError, match=f"{argument} has length"):
        call(p, _argument(argument, _size(p, argument) + extra))


def _assert_same(a, b):
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("evaluate", list(VECTOR_CALLS.values()), ids=list(VECTOR_CALLS))
def test_column_vector_read_flat(evaluate):
    # An (n, 1) or (m, 1) argument gives exactly the flat vector's result.
    argument, call = evaluate
    p = random_problem(np.random.default_rng(13), n=40)
    flat = _argument(argument, _size(p, argument))
    _assert_same(call(p, flat[:, None]), call(p, flat))


def test_certificate_invariants_random_points():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_problem(rng, m=6, n=18, lam=rng.uniform(0.01, 1.0))
        w = rng.standard_normal(p.n)
        cert = dual_certificate(p, w)
        assert cert.dual_value <= cert.primal_value + 1e-9 * (1 + abs(cert.primal_value))
        assert cert.relative_gap >= 0.0
        assert np.abs(p.design.T @ cert.alpha_hat).max() <= p.lam * (1 + 1e-9)


def test_gap_conservative_away_from_optimum():
    # far from the solution the certificate reports a large positive gap
    rng = np.random.default_rng(12)
    p = random_problem(rng)
    w_far = rng.standard_normal(p.n) * 100
    assert relative_duality_gap(p, w_far) > 0.1


def test_solver_gap_traces_bound_suboptimality_on_oracle_instances():
    # DAL's gap trace mixes the gaps of its scaled multiplier and of the
    # residual certificate; both must bound the true relative suboptimality.
    for seed in range(1, 21):
        p = generate(GenSpec(family="normal", m=64, seed=seed)).problem
        _, f_star, _ = cd_lasso(p.design, p.observations, p.lam, gap_tol=1e-10)
        for config in (
            SolverConfig(outer_tolerance=1e-6, inner_variant="cholesky"),
            SolverConfig(outer_tolerance=1e-6, inner_variant="pcg"),
            SolverConfig(outer_tolerance=1e-3),
        ):
            report = solve(p, config)
            for primal, gap in zip(report.objective_trace, report.gap_trace):
                assert gap >= (primal - f_star) / primal
