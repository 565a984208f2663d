"""Safety of the line search's bounded-out columns.

Each line search reads only the columns whose carried bound ``upper_j`` on
|q_j| plus ||a_j||*||d|| exceeds lam, and after the accepted step keeps
``A^T alpha`` exact on those columns alone.  At every accepted step these
tests recompute ``A^T alpha`` in full and check that the carried state is
sound: every bound holds, no bounded-out column is active, and every inner
workspace has the active set a full product gives.  On the oracle instances,
no bounded-out column is in the oracle's support either.
"""

import numpy as np
import pytest

from dalsparse import (
    GenSpec,
    ProblemInstance,
    SolverConfig,
    compute_active_set,
    generate,
    solve,
)
from dalsparse import dal
from oracles import cd_lasso


def rounding(p, q):
    """Slack for the rounding drift of the carried vector."""
    return 1e-12 * max(p.lam, float(np.abs(q).max()))


@pytest.fixture()
def checked(monkeypatch):
    """Check the carried state after every accepted line search and every
    workspace against a fresh full product; returns the per-solve records."""
    real_line_search = dal._line_search
    real_workspace = dal.inner_workspace
    record = {"searches": 0, "bounded_out": 0, "workspaces": 0, "w_star": None}

    def line_search(ws, direction, grad, carried):
        alpha, step = real_line_search(ws, direction, grad, carried)
        p = ws.p
        q = p.design.T @ alpha + carried.shift
        slack = rounding(p, q)
        assert np.all(carried.upper >= np.abs(q) - slack)
        exact = carried.exact
        np.testing.assert_allclose(
            carried.design_t_alpha[exact], (q - carried.shift)[exact],
            rtol=0, atol=slack,
        )
        stale = np.flatnonzero(~exact)
        assert np.all(carried.upper[stale] <= p.lam)
        assert np.all(np.abs(q[stale]) <= p.lam + slack)
        if record["w_star"] is not None:
            assert np.all(record["w_star"][stale] == 0)
        record["searches"] += 1
        record["bounded_out"] += stale.size
        return alpha, step

    def inner_workspace(p, w, eta, alpha, design_t_alpha=None):
        ws = real_workspace(p, w, eta, alpha, design_t_alpha)
        q = p.design.T @ np.asarray(alpha) + w / eta
        # |q_j| within rounding of lam is a tie either product may break
        # either way (the start puts max |q_j| at lam itself).
        ties = np.flatnonzero(np.abs(np.abs(q) - p.lam) <= rounding(p, q))
        np.testing.assert_array_equal(
            np.setdiff1d(ws.active, ties),
            np.setdiff1d(compute_active_set(q, p.lam), ties),
        )
        record["workspaces"] += 1
        return ws

    monkeypatch.setattr(dal, "_line_search", line_search)
    monkeypatch.setattr(dal, "inner_workspace", inner_workspace)
    return record


@pytest.mark.parametrize("variant", ["cholesky", "pcg"])
def test_oracle_instances(checked, variant):
    """The 20 instances of the acceptance oracle batch, at its tolerance."""
    for seed in range(1, 21):
        p = generate(GenSpec(family="normal", m=64, seed=seed)).problem
        checked["w_star"] = cd_lasso(p.design, p.observations, p.lam,
                                     gap_tol=1e-10)[0]
        report = solve(p, SolverConfig(outer_tolerance=1e-6, inner_variant=variant))
        assert report.converged
    assert checked["bounded_out"] > 0, "no line search bounded out a column"


@pytest.mark.parametrize("variant", ["cholesky", "pcg"])
def test_largescale(checked, variant):
    p = generate(GenSpec(family="largescale", n=4096, seed=1)).problem
    report = solve(p, SolverConfig(outer_tolerance=1e-3, inner_variant=variant))
    assert report.converged
    assert checked["searches"] == report.inner_newton_iters
    assert checked["bounded_out"] > 0
    assert checked["workspaces"] >= report.inner_newton_iters


@pytest.mark.parametrize("order", ["C", "F"])
def test_column_norms_match_numpy(order):
    """The problem's cached pass gives every column's norm, from either layout."""
    rng = np.random.default_rng(0)
    design = np.asarray(rng.standard_normal((64, 24581)), order=order)
    p = ProblemInstance(design=design, observations=np.zeros(64), lam=1.0)
    np.testing.assert_allclose(
        p._column_norms, np.linalg.norm(design, axis=0), rtol=1e-14
    )


def test_column_norms_computed_once_per_problem():
    """Solves with both variants read the one array cached on the problem."""
    p = generate(GenSpec(family="normal", m=32, seed=1)).problem
    assert solve(p, SolverConfig(inner_variant="cholesky")).converged
    norms = vars(p)["_column_norms"]
    assert solve(p, SolverConfig(inner_variant="pcg")).converged
    assert vars(p)["_column_norms"] is norms
    np.testing.assert_allclose(norms, np.linalg.norm(p.design, axis=0), rtol=1e-14)
