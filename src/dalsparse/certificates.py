"""Feasible dual points and the relative duality gap used as stopping criterion.

Given any primal iterate ``w``, a feasible dual point is constructed by
scaling the negated residual ``b - A w`` back into the dual feasible region
``||A^T alpha||_inf <= lam``.  The resulting primal-dual pair gives a
computable optimality certificate: the relative duality gap
``(f(w) - d(alpha_hat)) / f(w)`` is zero exactly at a primal optimum.

Sign convention: the dual maximizer satisfies ``alpha* = b - A w*`` at the
optimum, so the certificate is built from ``b - A w`` (not ``A w - b``); the
orientation is pinned by a unit test on instances with known closed-form
optima, where this choice drives the gap to zero.

Scaling a candidate ``c`` into the feasible set needs only ``A^T c``, and the
scaled point's own product is then ``s * A^T c``, so no second product is
needed to check it.  From ``w`` alone a certificate makes one full product,
``A^T (A w - b)``, and forms ``A w`` from the nonzero columns of a sparse ``w``
(:func:`dalsparse.prox._residual`); supplied both, it makes none.  The DAL
solver applies the same scaling to its multiplier ``alpha``, whose
``A^T alpha`` it already holds, to get a second sound certificate for free, and
to ``b`` to start that multiplier inside the feasible set (see
:func:`dalsparse.dal.solve`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prox import ProblemInstance, _dual_value, _primal_value, _residual, _vector

# Guards division by f(w) = 0, reachable only for b = 0 where w = 0 is optimal.
GAP_DENOMINATOR_FLOOR = 1e-30


@dataclass(frozen=True)
class DualCertificate:
    """A feasible dual point together with the primal/dual values it certifies."""

    alpha_hat: np.ndarray
    primal_value: float
    dual_value: float
    relative_gap: float


def feasible_dual_point(p: ProblemInstance, w: np.ndarray) -> np.ndarray:
    """Construct a dual-feasible point from the residual at ``w``.

    Returns ``s * (b - A w)`` with ``s = min(1, lam / ||A^T (A w - b)||_inf)``,
    so the result always satisfies ``||A^T alpha_hat||_inf <= lam``.  When the
    residual correlation exceeds ``lam`` (the generic case away from
    over-regularization) the bound holds with equality.  A zero-correlation
    residual is already feasible and is returned unscaled.
    """
    return dual_certificate(p, w).alpha_hat


def _feasible_scale(p: ProblemInstance, design_t_candidate: np.ndarray) -> float:
    """``min(1, lam / ||A^T candidate||_inf)``, given ``A^T candidate``: the
    factor that scales a candidate into the dual feasible set; 1 for a zero
    product, and NaN for a product holding a NaN, whose gap is then ``inf``."""
    corr = float(np.abs(design_t_candidate).max())
    return 1.0 if corr <= p.lam else p.lam / corr


def _certificate(
    p: ProblemInstance,
    primal: float,
    candidate: np.ndarray,
    design_t_candidate: np.ndarray,
) -> DualCertificate:
    """Certificate of a primal value ``primal`` by ``candidate * min(1, lam /
    ||A^T candidate||_inf)``, given ``A^T candidate`` (its sign does not
    matter; a zero product leaves the candidate unscaled); O(m + n), no
    product with the design.  A non-finite gap, as from a ``w`` holding a NaN
    or an inf, is reported as ``inf``: such a point is never certified."""
    alpha_hat = _feasible_scale(p, design_t_candidate) * candidate
    dual = _dual_value(p, alpha_hat)
    gap = (primal - dual) / max(primal, GAP_DENOMINATOR_FLOOR)
    gap = max(0.0, gap) if math.isfinite(gap) else math.inf
    return DualCertificate(
        alpha_hat=alpha_hat, primal_value=primal, dual_value=dual, relative_gap=gap
    )


def dual_certificate(
    p: ProblemInstance,
    w: np.ndarray,
    residual: np.ndarray | None = None,
    design_t_residual: np.ndarray | None = None,
) -> DualCertificate:
    """Build the full certificate (feasible point, primal/dual values, gap) at ``w``.

    The dual value is taken from the scaled residual directly: its feasibility
    follows from the known ``A^T alpha_hat = -s * A^T residual``, so no product
    re-checks it (:func:`dalsparse.prox.dual_objective` does, for outside
    callers).  ``residual`` (= ``A w - b``) and ``design_t_residual`` (= ``A^T
    residual``) may be supplied to reuse products computed by a solver loop.
    """
    w = _vector(w, p.n, "w")
    if residual is None:
        residual = _residual(p, w)
    residual = _vector(residual, p.m, "residual")
    if design_t_residual is None:
        design_t_residual = p.design.T @ residual
    design_t_residual = _vector(design_t_residual, p.n, "design_t_residual")
    return _certificate(p, _primal_value(p, w, residual), -residual, design_t_residual)


def relative_duality_gap(
    p: ProblemInstance,
    w: np.ndarray,
    residual: np.ndarray | None = None,
    design_t_residual: np.ndarray | None = None,
) -> float:
    """Relative duality gap ``max(0, (f(w) - d(alpha_hat)) / max(f(w), floor))``,
    or ``inf`` when that is not finite."""
    return dual_certificate(p, w, residual, design_t_residual).relative_gap
