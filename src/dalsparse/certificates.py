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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prox import ProblemInstance, _primal_value, dual_objective

# Guards division by f(w) = 0, reachable only for b = 0 where w = 0 is optimal.
GAP_DENOMINATOR_FLOOR = 1e-30


@dataclass(frozen=True)
class DualCertificate:
    """A feasible dual point together with the primal/dual values it certifies."""

    alpha_hat: np.ndarray
    primal_value: float
    dual_value: float
    relative_gap: float


def feasible_dual_point(
    p: ProblemInstance,
    w: np.ndarray,
    residual: np.ndarray | None = None,
    design_t_residual: np.ndarray | None = None,
) -> np.ndarray:
    """Construct a dual-feasible point from the residual at ``w``.

    Returns ``s * (b - A w)`` with ``s = min(1, lam / ||A^T (A w - b)||_inf)``,
    so the result always satisfies ``||A^T alpha_hat||_inf <= lam``.  When the
    residual correlation exceeds ``lam`` (the generic case away from
    over-regularization) the bound holds with equality.  A zero-correlation
    residual is already feasible and is returned unscaled.

    ``residual`` (= ``A w - b``) and ``design_t_residual`` (= ``A^T residual``)
    may be supplied to reuse matrix-vector products computed by a solver loop.
    """
    w = np.asarray(w, dtype=float).ravel()
    if residual is None:
        residual = p.design @ w - p.observations
    if design_t_residual is None:
        design_t_residual = p.design.T @ residual
    corr = float(np.abs(design_t_residual).max())
    if corr == 0.0:
        return -residual
    return (-min(1.0, p.lam / corr)) * residual


def dual_certificate(
    p: ProblemInstance,
    w: np.ndarray,
    residual: np.ndarray | None = None,
    design_t_residual: np.ndarray | None = None,
) -> DualCertificate:
    """Build the full certificate (feasible point, primal/dual values, gap) at ``w``."""
    w = np.asarray(w, dtype=float).ravel()
    if residual is None:
        residual = p.design @ w - p.observations
    alpha_hat = feasible_dual_point(p, w, residual, design_t_residual)
    primal = _primal_value(p, w, residual)
    dual = dual_objective(p, alpha_hat)
    gap = max(0.0, (primal - dual) / max(primal, GAP_DENOMINATOR_FLOOR))
    return DualCertificate(
        alpha_hat=alpha_hat, primal_value=primal, dual_value=dual, relative_gap=gap
    )


def relative_duality_gap(
    p: ProblemInstance,
    w: np.ndarray,
    residual: np.ndarray | None = None,
    design_t_residual: np.ndarray | None = None,
) -> float:
    """Relative duality gap ``max(0, (f(w) - d(alpha_hat)) / max(f(w), floor))``."""
    return dual_certificate(p, w, residual, design_t_residual).relative_gap
