"""Proximal/projection operators and objective evaluation for the l2-l1 problem.

The problem solved throughout this package is

    minimize_w  0.5 * ||A w - b||_2^2 + lam * ||w||_1

with a dense design matrix ``A`` (m x n), observations ``b`` (length m) and
regularization weight ``lam > 0``.  Its Fenchel dual is

    maximize_alpha  -0.5 * ||alpha - b||_2^2 + 0.5 * ||b||_2^2
    subject to      ||A^T alpha||_inf <= lam.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DualInfeasibleError(ValueError):
    """Raised when a dual point violates the inf-norm feasibility constraint."""


# Relative slack accepted on ||A^T alpha||_inf <= lam; certificate
# construction lands on the boundary only up to rounding.
FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class ProblemInstance:
    """A single l2-l1 reconstruction problem: design matrix, observations, weight.

    The design matrix is kept dense and converted to column-major (Fortran)
    layout so that gathering active columns is contiguous.
    """

    design: np.ndarray
    observations: np.ndarray
    lam: float

    def __post_init__(self):
        design = np.asfortranarray(np.atleast_2d(np.asarray(self.design, dtype=float)))
        observations = np.asarray(self.observations, dtype=float).ravel()
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "lam", float(self.lam))
        if design.ndim != 2 or design.shape[0] < 1 or design.shape[1] < 1:
            raise ValueError("design must be a matrix with at least one row and column")
        if observations.shape[0] != design.shape[0]:
            raise ValueError(
                f"observations length {observations.shape[0]} does not match "
                f"design row count {design.shape[0]}"
            )
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")

    @property
    def m(self) -> int:
        return self.design.shape[0]

    @property
    def n(self) -> int:
        return self.design.shape[1]


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise shrink of ``v`` toward zero by ``t``, clipping to zero on [-t, t].

    This is the proximal operator of ``t * ||.||_1``.  Components with
    ``|v_j| <= t`` (boundary included) map to exact zeros.
    """
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def project_linf(v: np.ndarray, r: float) -> np.ndarray:
    """Componentwise clamp of ``v`` to the interval [-r, r] (inf-norm ball projection).

    Complementary to :func:`soft_threshold`:
    ``soft_threshold(v, r) + project_linf(v, r) == v`` exactly.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    v = np.asarray(v, dtype=float)
    return np.clip(v, -r, r)


def primal_objective(p: ProblemInstance, w: np.ndarray) -> float:
    """Evaluate 0.5*||A w - b||^2 + lam*||w||_1."""
    w = np.asarray(w, dtype=float).ravel()
    if w.shape[0] != p.n:
        raise ValueError(f"w has length {w.shape[0]}, expected {p.n}")
    return _primal_value(p, w, p.design @ w - p.observations)


def _primal_value(p: ProblemInstance, w: np.ndarray, residual: np.ndarray) -> float:
    """0.5*||residual||^2 + lam*||w||_1 for a residual A w - b already formed."""
    return 0.5 * float(residual @ residual) + p.lam * float(np.abs(w).sum())


def dual_objective(p: ProblemInstance, alpha: np.ndarray) -> float:
    """Evaluate the dual objective -0.5*||alpha - b||^2 + 0.5*||b||^2.

    ``alpha`` must be feasible: ``||A^T alpha||_inf <= lam`` up to a relative
    slack of ``FEASIBILITY_RTOL``.  By weak duality the value never exceeds
    ``primal_objective(p, w)`` for any ``w``.
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.shape[0] != p.m:
        raise ValueError(f"alpha has length {alpha.shape[0]}, expected {p.m}")
    corr = np.abs(p.design.T @ alpha).max() if p.n > 0 else 0.0
    if corr > p.lam * (1.0 + FEASIBILITY_RTOL):
        raise DualInfeasibleError(
            f"||A^T alpha||_inf = {corr:.6g} exceeds lam = {p.lam:.6g}"
        )
    diff = alpha - p.observations
    b = p.observations
    return -0.5 * float(diff @ diff) + 0.5 * float(b @ b)
