"""Proximal/projection operators and objective evaluation for the l2-l1 problem.

The problem solved throughout this package is

    minimize_w  0.5 * ||A w - b||_2^2 + lam * ||w||_1

with a dense design matrix ``A`` (m x n), observations ``b`` (length m) and
regularization weight ``lam > 0``.  Its Fenchel dual is

    maximize_alpha  -0.5 * ||alpha - b||_2^2 + 0.5 * ||b||_2^2
    subject to      ||A^T alpha||_inf <= lam.

Everything here is a pure function of immutable inputs.  Each input rule of
the public functions has one owner: :func:`_vector` (vectors, read flat, and a
wrong length named), :func:`_check_positive` (finite, positive scalars) and
:func:`_check_cap` (counts: integers of at least 1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DualInfeasibleError(ValueError):
    """Raised when a dual point violates the inf-norm feasibility constraint."""


# Relative slack accepted on ||A^T alpha||_inf <= lam; certificate
# construction lands on the boundary only up to rounding.
FEASIBILITY_RTOL = 1e-9
# A single-pass read of k columns gathers them while k <= max(16, 0.25*n);
# past that, one full product is cheaper.  _residual gathers in one copy,
# _gathered_products in blocks of _BLOCK_ELEMENTS (4 MiB of float64).
_GATHER_MAX_FRACTION = 0.25
_BLOCK_ELEMENTS = 2**19


def _vector(x, size: int, name: str) -> np.ndarray:
    """``x`` as a flat float view, of any shape holding ``size`` entries."""
    v = np.asarray(x, dtype=float).ravel()
    if v.shape[0] != size:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {size}")
    return v


def _check_positive(name: str, value) -> None:
    """Reject a scalar that is not finite and positive (NaN included)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_cap(name: str, cap) -> None:
    """Reject a count that is not an integer (numpy's too, bool not) of at least 1."""
    if not isinstance(cap, numbers.Integral) or isinstance(cap, bool) or cap < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {cap!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """One l2-l1 problem: an m x n design, m observations and a weight lam.

    Requires m, n >= 1 and a finite lam > 0.  The design is kept dense and
    column-major (Fortran) so that gathering active columns is contiguous.
    Its column norms and ``A^T b`` are computed on first use and cached, so
    neither the design nor the observations may be modified in place after
    the first solve.
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
        _check_positive("lam", self.lam)

    @property
    def m(self) -> int:
        return self.design.shape[0]

    @property
    def n(self) -> int:
        return self.design.shape[1]

    @cached_property
    def _column_norms(self) -> np.ndarray:
        """||a_j|| for every column: one stacked 1 x m by m x 1 BLAS dot each,
        through a plain ndarray view, so a design subclass that counts its
        products does not count this pass."""
        rows = np.asarray(self.design).T
        return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).ravel())

    @cached_property
    def _design_t_b(self) -> np.ndarray:
        """A^T b, through ``self.design``: a full product, made once per problem."""
        return self.design.T @ self.observations


def _starting_point(p: ProblemInstance, w_initial: np.ndarray | None) -> np.ndarray:
    """A solver's own copy of ``w_initial`` as a flat float vector; zeros if None.

    Rejects a wrong length or a NaN or infinite entry.
    """
    if w_initial is None:
        return np.zeros(p.n)
    w = _vector(w_initial, p.n, "w_initial").copy()
    if not np.isfinite(w).all():
        raise ValueError("w_initial has a NaN or infinite entry")
    return w


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise shrink of ``v`` toward zero by ``t``, clipping to zero on [-t, t].

    This is the proximal operator of ``t * ||.||_1``.  Components with
    ``|v_j| <= t`` (boundary included) map to exact zeros.
    """
    if not t >= 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def project_linf(v: np.ndarray, r: float) -> np.ndarray:
    """Componentwise clamp of ``v`` to the interval [-r, r] (inf-norm ball projection).

    Complementary to :func:`soft_threshold`:
    ``soft_threshold(v, r) + project_linf(v, r) == v`` exactly.
    """
    if not r >= 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    v = np.asarray(v, dtype=float)
    return np.clip(v, -r, r)


def _gather_pays(p: ProblemInstance, k: int) -> bool:
    """Whether one pass over k gathered columns beats a full-design product.

    The one gather-or-full rule, for reads made once: ``A w`` here, and a DAL
    line search's or rebase's columns through :func:`_gathered_products`.
    DAL's inner workspaces always gather.
    """
    return k <= max(16, int(_GATHER_MAX_FRACTION * p.n))


def _gathered_products(p: ProblemInstance, columns, vectors) -> np.ndarray | None:
    """``A[:, columns]^T @ vectors``, gathered block by block, or None (and no
    product made) when :func:`_gather_pays` says a full product is cheaper."""
    if not _gather_pays(p, columns.size):
        return None
    out = np.empty((columns.size,) + vectors.shape[1:])
    step = max(1, _BLOCK_ELEMENTS // p.m)
    for lo in range(0, columns.size, step):
        out[lo : lo + step] = p.design[:, columns[lo : lo + step]].T @ vectors
    return out


def _residual(p: ProblemInstance, w: np.ndarray) -> np.ndarray:
    """A w - b for a flat float ``w`` of length n, from its nonzero columns while few."""
    nz = np.flatnonzero(w)
    if _gather_pays(p, nz.size):
        return p.design[:, nz] @ w[nz] - p.observations
    return p.design @ w - p.observations


def primal_objective(p: ProblemInstance, w: np.ndarray) -> float:
    """Evaluate 0.5*||A w - b||^2 + lam*||w||_1."""
    w = _vector(w, p.n, "w")
    return _primal_value(p, w, _residual(p, w))


def _primal_value(p: ProblemInstance, w: np.ndarray, residual: np.ndarray) -> float:
    """0.5*||residual||^2 + lam*||w||_1 for a residual A w - b already formed."""
    return 0.5 * float(residual @ residual) + p.lam * float(np.abs(w).sum())


def dual_objective(p: ProblemInstance, alpha: np.ndarray) -> float:
    """Evaluate the dual objective -0.5*||alpha - b||^2 + 0.5*||b||^2.

    ``alpha`` must be feasible: ``||A^T alpha||_inf <= lam`` up to a relative
    slack of ``FEASIBILITY_RTOL``; a non-finite ``alpha`` fails this check.
    By weak duality the value never exceeds ``primal_objective(p, w)`` for
    any ``w``.
    """
    alpha = _vector(alpha, p.m, "alpha")
    corr = np.abs(p.design.T @ alpha).max()
    if not corr <= p.lam * (1.0 + FEASIBILITY_RTOL):
        raise DualInfeasibleError(
            f"||A^T alpha||_inf = {corr:.6g} is not within lam = {p.lam:.6g}"
        )
    return _dual_value(p, alpha)


def _dual_value(p: ProblemInstance, alpha: np.ndarray) -> float:
    """-0.5*||alpha - b||^2 + 0.5*||b||^2 for an alpha known to be feasible."""
    diff = alpha - p.observations
    b = p.observations
    return -0.5 * float(diff @ diff) + 0.5 * float(b @ b)
