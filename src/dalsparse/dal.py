"""Dual augmented Lagrangian solver for the l2-l1 reconstruction problem.

The outer loop minimizes the primal objective through a sequence of smooth
dual subproblems: at outer iteration k, with barrier weight eta_k and primal
multiplier estimate w_k, the inner problem is

    minimize_alpha  g(alpha) = 0.5*||alpha - b||^2
                             + (eta_k/2)*||ST_lam(A^T alpha + w_k/eta_k)||^2

solved by a damped Newton method, after which the multiplier is refreshed by
w_{k+1} = ST_{lam*eta_k}(w_k + eta_k*A^T alpha_k) and eta doubles
(up to a cap).  The inner solve stops on primal progress, by the rule that
Tomioka, Suzuki & Sugiyama analyse (JMLR 12, 2011):

    ||grad g(alpha)|| <= ||w_{k+1}(alpha) - w_k|| / sqrt(eta_k),

where w_{k+1}(alpha) is the update the current alpha would make, or once the
gradient norm reaches the floor eps_k (1e-4*sqrt(m), halved every outer
iteration), whichever comes first.  Early on the multiplier moves
far and a rough inner solve suffices; near the optimum the move vanishes and
eps_k takes over.  Every iterate w_k is exactly sparse, and only the "active"
columns of A (those with |q_j| > lam for q = A^T alpha + w/eta) enter the
inner gradient and Hessian, so per-iteration cost tracks the sparsity of the
current solution.

Two inner strategies are provided: a dense Cholesky factorization of the
Newton system, and a diagonally preconditioned conjugate gradient (truncated
Newton) that only applies the Hessian matrix-free.  With k active columns the
Newton system (I + eta*A+ A+^T) y = -g is m x m; when k < m the Cholesky
variant factors the smaller k x k matrix S = I + eta*A+^T A+ instead and
returns y = -g + eta*A+ S^{-1} A+^T g (Sherman-Morrison-Woodbury), so its
factorization cost follows the sparsity of the solution too.  Either matrix
is factored by numpy's LAPACK and solved by two triangular solves; the k x k
form then makes one step of iterative refinement with the same factor,
which removes the rounding its subtraction leaves when eta*||A+||^2 is
large.  Exact Newton steps cost the same at any eta, so the Cholesky
variant starts at eta_1 = 16/lam and reaches a large eta, where the outer
rate is fast, in fewer outer iterations; PCG's conditioning worsens as eta
grows, so it starts at 1/lam (``_ETA_START``).

The k x k Gram ``A+^T A+`` does not depend on eta, and between Newton steps
only a few of its columns change, so a solve keeps the last one, with its
sorted column indices, on the state it carries through :func:`inner_solve`
(``_CarriedProduct.gram``).  The next k x k Gram copies the entries of the
columns that stay active and computes only the rows of those that enter,
``A_enter^T A+``, however many enter; every entry is still one column dot
product, so nothing cancels.  It is built from scratch only at a solve's
first k x k step; an m x m step leaves it kept, and its own ``A+ A+^T`` is
never kept, as updating it would subtract the leaving columns' terms.  Both
strategies, and the gradient, read A+ from :class:`InnerWorkspace`, the
active-set operator (``matvec``, ``rmatvec``, ``gram``, ``smaller_gram``,
``diag``), which gathers it into a copy no larger than the design and counts
column touches; the Woodbury solve reads ``active_cols`` directly, so a
Cholesky step adds only its Gram's k.  Only single-pass reads (``A w``, a
line search's or a rebase's columns) choose between a gather and a full
product, all by one rule: :func:`dalsparse.prox._gathered_products` returns
None where one full product is cheaper.

Products with the whole design matrix dominate the cost of wide problems, so
``A^T alpha`` is carried from the start of :func:`solve` to its end instead
of recomputed, and kept exact only on the columns that can become active.  A
line search step ``t <= 1`` along d moves q_j by at most ``||a_j||*||d||``
(Cauchy-Schwarz, the sphere test of Gap Safe screening: Fercoq, Gramfort &
Salmon, ICML 2015), so each line search reads only the columns whose carried
upper bound on |q_j| plus that radius exceeds lam.  When they are few enough
to gather, one blocked pass over them forms both ``a_j^T alpha`` and
``a_j^T d``; every other column stays at or below lam at every trial point,
adds nothing to the trial objectives, and only has its bound grown by
``t*||a_j||*||d||``.  Otherwise the search makes one full product for
``A^T d``, and makes the stale entries exact as well: gathered when they are
few, else by a second full product.  A Newton step from an empty active set
is ``d = b - alpha`` for both inner variants, so its search takes ``A^T d =
A^T b - A^T alpha`` from the problem's ``A^T b`` and makes no product; from
``w = 0`` that is the first search, where nearly every column can cross lam.
The column norms and ``A^T b`` are computed once per problem
(``ProblemInstance._column_norms`` and ``_design_t_b``).

Between outer iterations the carried vector is rebased, not refreshed.  After
the last accepted step every stale column has |q_j| <= lam, so the
multiplier update leaves it at w_j = 0, and the next shift w/eta moves its
q_j by at most the old shift.  Each stale column whose bound that lifts
above lam is made exact (gathered when few, else one full product) before
anything reads the vector again, so every stale entry stays inactive: the
multiplier update, the prescreen below and every active set read what a
fresh product would give.  The exact entries gain one rounding per line
search.  The multiplier update reads the carried vector, and ``A w`` is
formed from the nonzero columns of the sparse iterate by
:func:`dalsparse.prox._residual`, under the same rule.

The carried ``A^T alpha`` also certifies the iterate cheaply: its largest
entry is exact or at most lam, so, scaled into the dual feasible set, alpha
gives a duality gap in O(m + n).  Only when that gap meets the tolerance
does the solver form ``A^T (A w - b)`` for the residual certificate of
:mod:`dalsparse.certificates`, and it stops only on the latter, so the
returned ``w`` is certified from its own residual.  A solve therefore makes
one full-design product per residual certificate, +1 on a problem's first
solve (``A^T b``, cached on the problem), plus one or two per line search
that cannot gather its columns, and one per rebase whose lifted columns are
too many to gather: near the start every column can cross lam and most
Newton steps cost a full product, while in the later, sparse steps most
cost none.  A dense iterate's ``A w`` adds to it; a workspace adds none.

``A^T b`` also places the starting multiplier: alpha starts at
``b`` scaled into the dual feasible set ``||A^T alpha||_inf <= lam``, and its
``A^T alpha`` is ``A^T b`` scaled by the same factor.  From ``w = 0`` the
first active set is then empty unless rounding lifts one column above lam
(that first search makes one full product), and later active sets grow from
below; unscaled, ``A^T b`` exceeds lam on most columns of a wide problem,
and the first steps would gather most of the design into m x m systems.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .certificates import _certificate, _feasible_scale, relative_duality_gap
from .prox import (
    ProblemInstance, _check_cap, _check_positive, _gathered_products,
    _primal_value, _residual, _starting_point, _vector, soft_threshold,
)

INNER_VARIANTS = ("cholesky", "pcg")


class NumericError(RuntimeError):
    """A solve that cannot go on: a non-finite value, a failed factorization,
    or (as :class:`LineSearchError`) a line search that underflowed."""


class LineSearchError(NumericError):
    """Backtracking shrank the step below the underflow floor.

    Signals an inconsistency between objective and gradient, not a normal
    convergence failure.
    """


class OpCounters(threading.local):
    """Diagnostic effort counters (column touches of the design matrix), per thread.

    Each inner-gradient evaluation, Hessian assembly, PCG diagonal build and
    Hessian-vector application adds exactly the current active-set size to
    the count of the thread that made it, so solves on parallel threads do
    not cross-count; a Cholesky step's Woodbury solve adds nothing beyond
    its Gram's k.  Reset before a measurement, in the thread that runs it.
    """

    active_column_accesses: int = 0

    def reset(self) -> None:
        self.active_column_accesses = 0


counters = OpCounters()


# Per outer iteration the inner solve's gradient-norm floor, from
# _EPS_INITIAL_SCALE*sqrt(m), shrinks by _EPS_SHRINK down to _EPS_FLOOR, and
# eta, from _ETA_START[variant]/lam, grows by _ETA_GROWTH up to _ETA_CAP
# (Cholesky's Newton steps are exact at any eta, so it starts higher; PCG's
# conditioning worsens as eta grows); one PCG solve takes at most
# _PCG_MAX_ITERS iterations; a line search shrinks its step by _LS_SHRINK
# until the Armijo test with factor _LS_SUFFICIENT_DECREASE holds, and gives
# up below _MIN_STEP; one inner solve takes at most _MAX_INNER_NEWTON Newton
# steps.
_EPS_INITIAL_SCALE = 1e-4
_EPS_SHRINK = 0.5
_EPS_FLOOR = 1e-12
_ETA_START = {"cholesky": 16.0, "pcg": 1.0}
_ETA_GROWTH = 2.0
_ETA_CAP = 1e12
_PCG_MAX_ITERS = 500
_LS_SHRINK = 0.5
_LS_SUFFICIENT_DECREASE = 1e-4
_MIN_STEP = 1e-16
_MAX_INNER_NEWTON = 100


@dataclass(frozen=True)
class SolverConfig:
    """Start, tolerance, outer cap and inner variant for :func:`solve`: four fields.

    ``eta_initial=None`` means ``16/lam`` for the Cholesky variant and
    ``1/lam`` for PCG (``_ETA_START``); either is capped at ``_ETA_CAP``
    (:func:`_starting_eta`) and doubles per outer iteration (``_ETA_GROWTH``).
    The inner solve stops on primal progress (see the module docstring) or
    at the gradient-norm floor eps_k, which starts at ``1e-4*sqrt(m)`` and
    halves per outer iteration (``_EPS_SHRINK``), and takes at most
    ``_MAX_INNER_NEWTON`` Newton steps.  ``max_outer`` is an integer of at
    least 1.
    """

    eta_initial: float | None = None
    outer_tolerance: float = 1e-3
    max_outer: int = 100
    inner_variant: str = "cholesky"

    def __post_init__(self):
        if self.eta_initial is not None:
            _check_positive("eta_initial", self.eta_initial)
        _check_positive("outer_tolerance", self.outer_tolerance)
        _check_cap("max_outer", self.max_outer)
        if self.inner_variant not in INNER_VARIANTS:
            raise ValueError(f"inner_variant must be one of {INNER_VARIANTS}")


def _starting_eta(p: ProblemInstance, eta_initial: float | None, variant: str) -> float:
    """The eta a solve with inner ``variant`` starts with: ``eta_initial``,
    else ``_ETA_START[variant]/lam``, capped."""
    if eta_initial is None:
        eta_initial = _ETA_START[variant] / p.lam
    return min(eta_initial, _ETA_CAP)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: final iterate, traces, and effort accounting.

    ``gap_trace`` holds one relative duality gap per outer iteration.  DAL
    forms the residual certificate only once the gap of its scaled multiplier
    meets the tolerance; entries that skipped it hold that multiplier gap,
    which is still a sound upper bound.  Both traces hold at least one entry,
    and the summary is read from them and ``w_final``, not stored:
    ``primal_value`` and ``relative_gap`` are their last entries (a converged
    solve's gap is always the residual gap), and ``nnz_fraction`` is the
    share of nonzeros in ``w_final``.  ``wall_time_seconds`` runs from the
    solver's entry to its return.  The last three counts are DAL's inner
    effort and stay 0 for IST: Newton steps, CG iterations, and cap hits:
    first-pass inner solves whose returned alpha misses its stop rule.
    """

    w_final: np.ndarray
    outer_iters: int
    wall_time_seconds: float
    converged: bool
    objective_trace: list[float]
    gap_trace: list[float]
    inner_newton_iters: int = 0
    pcg_iters_total: int = 0
    inner_cap_hits: int = 0

    @property
    def primal_value(self) -> float:
        return self.objective_trace[-1]

    @property
    def relative_gap(self) -> float:
        return self.gap_trace[-1]

    @property
    def nnz_fraction(self) -> float:
        return float(np.count_nonzero(self.w_final)) / self.w_final.size


def compute_active_set(q: np.ndarray, lam: float) -> np.ndarray:
    """Indices j with |q_j| strictly above lam; boundary values are inactive."""
    return np.flatnonzero(np.abs(q) > lam)


@dataclass(frozen=True)
class InnerWorkspace:
    """The active-set operator A+ at one inner point (p, eta, alpha).

    Holds q = A^T alpha + w/eta, its active set, ``shrunk`` = ST_lam(q) on
    that set (q_j - lam*sign(q_j)), and the active columns of the design,
    gathered into ``active_cols`` (m x k, never larger than the design).
    ``matvec``, ``gram``, ``smaller_gram`` and ``diag`` each add the
    active-set size to :data:`counters`; ``rmatvec`` adds nothing.
    """

    p: ProblemInstance
    eta: float
    alpha: np.ndarray
    q: np.ndarray
    active: np.ndarray
    shrunk: np.ndarray
    active_cols: np.ndarray

    def matvec(self, values: np.ndarray) -> np.ndarray:
        """A+ @ values."""
        counters.active_column_accesses += int(self.active.size)
        return self.active_cols @ values

    def rmatvec(self, vec: np.ndarray) -> np.ndarray:
        """A+^T @ vec."""
        return self.active_cols.T @ vec

    def gram(self) -> np.ndarray:
        """A+ A+^T, the m x m Gram matrix of the active columns."""
        counters.active_column_accesses += int(self.active.size)
        return self.active_cols @ self.active_cols.T

    def smaller_gram(self, last=None) -> np.ndarray:
        """The smaller Gram matrix of A+: A+ A+^T as :meth:`gram` when k >= m,
        else the k x k A+^T A+.  Adds k to :data:`counters` either way.

        ``last`` may be the ``(columns, A[:, columns]^T A[:, columns])`` of an
        earlier workspace on the same design, columns sorted; it always holds
        at least one column, since :func:`_newton_cholesky` keeps nothing at
        k = 0.  The k x k form then copies the entries of the columns that
        stay active and computes only the rows of those that enter,
        ``A_enter^T A+``.  ``last`` itself is never changed.
        """
        k = int(self.active.size)
        if k >= self.p.m:
            return self.gram()
        counters.active_column_accesses += k
        cols = self.active_cols
        if last is None:
            return cols.T @ cols
        kept, kept_gram = last
        # Each active column's kept row; an entering one's is overwritten below.
        at = np.searchsorted(kept, self.active).clip(max=kept.size - 1)
        enter = np.flatnonzero(kept[at] != self.active)
        gram = kept_gram.take(at, 0).take(at, 1)
        rows = cols[:, enter].T @ cols
        gram[enter] = rows
        gram[:, enter] = rows.T
        return gram

    def diag(self) -> np.ndarray:
        """diag(A+ A+^T): row sums of the squared active columns."""
        counters.active_column_accesses += int(self.active.size)
        return np.einsum("ij,ij->i", self.active_cols, self.active_cols)


def inner_workspace(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    alpha: np.ndarray,
    design_t_alpha: np.ndarray | None = None,
) -> InnerWorkspace:
    """Build the active-set operator at alpha: q = A^T alpha + w/eta, its
    active set, and a copy of the active columns (k*m*8 bytes).

    ``design_t_alpha`` (= ``A^T alpha``) may be supplied to reuse a
    matrix-vector product computed by a solver loop.
    """
    _check_positive("eta", eta)
    alpha = _vector(alpha, p.m, "alpha")
    if design_t_alpha is None:
        design_t_alpha = p.design.T @ alpha
    q = _vector(design_t_alpha, p.n, "design_t_alpha") + _vector(w, p.n, "w") / eta
    active = compute_active_set(q, p.lam)
    qa = q[active]
    shrunk = qa - p.lam * np.sign(qa)
    return InnerWorkspace(p, eta, alpha, q, active, shrunk, p.design[:, active])


def _objective_from_q(p, eta, alpha, q):
    st = soft_threshold(q, p.lam)
    diff = alpha - p.observations
    return 0.5 * float(diff @ diff) + 0.5 * eta * float(st @ st)


def inner_objective(
    p: ProblemInstance, w: np.ndarray, eta: float, alpha: np.ndarray
) -> float:
    """Inner objective 0.5*||alpha - b||^2 + (eta/2)*||ST_lam(A^T alpha + w/eta)||^2."""
    ws = inner_workspace(p, w, eta, alpha)
    return _objective_from_q(p, eta, ws.alpha, ws.q)


def _gradient(ws):
    return ws.alpha - ws.p.observations + ws.eta * ws.matvec(ws.shrunk)


def inner_gradient(
    p: ProblemInstance, w: np.ndarray, eta: float, alpha: np.ndarray
) -> np.ndarray:
    """Gradient alpha - b + eta*A*ST_lam(q); the product runs over active columns only."""
    return _gradient(inner_workspace(p, w, eta, alpha))


def cho_factor(hess: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``hess`` from numpy's LAPACK.

    Not scipy's: scipy links an OpenBLAS of its own, whose worker thread
    keeps spinning after a threaded factorization and slows the numpy
    products that follow.  Raises :class:`NumericError` when ``hess`` is not
    positive definite.
    """
    try:
        return np.linalg.cholesky(hess)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc


def cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs for the lower factor L by two triangular solves."""
    half = solve_triangular(factor, rhs, lower=True, check_finite=False)
    return solve_triangular(factor, half, lower=True, trans="T", check_finite=False)


def _check_gradient(grad):
    """Reject a non-finite gradient before any Hessian product is made."""
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient passed to Newton solve")


def _newton_cholesky(ws, grad, carried=None):
    _check_gradient(grad)
    if ws.active.size == 0:
        return -grad
    gram = ws.smaller_gram(None if carried is None else carried.gram)
    if carried is not None and ws.active.size < ws.p.m:
        carried.gram = (ws.active, gram)
    # A new array: a kept Gram is never changed.
    hess = ws.eta * gram
    hess[np.diag_indices_from(hess)] += 1.0
    if not np.all(np.isfinite(hess)):
        raise NumericError("non-finite Hessian assembled")
    factor = cho_factor(hess)
    if ws.active.size >= ws.p.m:
        return cho_solve(factor, -grad)
    # Woodbury: (I + eta*A+ A+^T)^{-1} = I - eta*A+ (I + eta*A+^T A+)^{-1} A+^T.
    cols = ws.active_cols

    def woodbury(rhs):
        return rhs - ws.eta * (cols @ cho_solve(factor, cols.T @ rhs))

    # Its subtraction cancels where grad lies near the range of A+, leaving a
    # residual near eps*eta*||A+||^2*||grad||; one step of iterative
    # refinement on the m x m system removes it.
    y = woodbury(-grad)
    return y + woodbury(-grad - y - ws.eta * (cols @ (cols.T @ y)))


def newton_direction_cholesky(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    alpha: np.ndarray,
    grad: np.ndarray,
) -> np.ndarray:
    """Solve (I + eta*A+ A+^T) y = -grad by dense Cholesky factorization.

    With k active columns and k < m the factored matrix is the k x k
    I + eta*A+^T A+, and y = -grad + eta*A+ (I + eta*A+^T A+)^{-1} A+^T grad
    (Sherman-Morrison-Woodbury), refined by one more such solve on its
    residual; otherwise it is the m x m Hessian itself.
    Either way the workspace adds k to :data:`counters`.  A non-finite
    ``grad`` raises :class:`NumericError` before any of it.
    """
    ws = inner_workspace(p, w, eta, alpha)
    return _newton_cholesky(ws, _vector(grad, p.m, "grad"))


def _newton_pcg(ws, grad, tol, max_iters):
    _check_gradient(grad)
    diag = 1.0 + ws.eta * ws.diag()
    r = -grad
    rhs_norm = float(np.linalg.norm(r))
    y = np.zeros(grad.shape[0])
    if rhs_norm == 0.0:
        return y, 0
    pvec = z = r / diag
    rz = float(r @ z)
    iters = 0
    for _ in range(max_iters):
        hp = pvec + ws.eta * ws.matvec(ws.rmatvec(pvec))
        step = rz / float(pvec @ hp)
        y += step * pvec
        r -= step * hp
        iters += 1
        if float(np.linalg.norm(r)) <= tol * rhs_norm:
            break
        z = r / diag
        rz_new = float(r @ z)
        pvec = z + (rz_new / rz) * pvec
        rz = rz_new
    return y, iters


def newton_direction_pcg(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    alpha: np.ndarray,
    grad: np.ndarray,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, int]:
    """Approximately solve the Newton system by diagonally preconditioned CG.

    The Hessian I + eta*A+ A+^T is applied matrix-free; iteration stops once
    the residual drops below ``tol`` times the gradient norm or after
    ``max_iters`` applications (truncation is a valid outcome).  Returns the
    direction and the number of CG iterations spent.  ``tol`` must be finite
    and positive and ``max_iters`` an integer of at least 1.  A non-finite
    ``grad`` raises :class:`NumericError` before any Hessian product.
    """
    _check_positive("tol", tol)
    _check_cap("max_iters", max_iters)
    ws = inner_workspace(p, w, eta, alpha)
    return _newton_pcg(ws, _vector(grad, p.m, "grad"), tol, max_iters)


@dataclass
class _CarriedProduct:
    """``A^T alpha`` carried through a solve, exact where it can matter.

    ``design_t_alpha`` is exact where ``exact`` is set, and there ``upper``
    is |q_j| itself, for q_j = (A^T alpha)_j + shift_j.  Elsewhere
    ``design_t_alpha`` holds its value at an earlier alpha, and all that is
    known is |q_j| <= upper_j <= lam: the column is inactive.  ``shift`` is
    w/eta.  ``gram`` is the ``(active, A+^T A+)`` of the last k x k
    Cholesky Newton step, None before the first (see the module
    docstring); it is replaced, never changed in place.
    """

    shift: np.ndarray
    design_t_alpha: np.ndarray
    upper: np.ndarray
    exact: np.ndarray
    gram: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def start(cls, shift, design_t_alpha):
        """Exact everywhere: ``design_t_alpha`` is a fresh ``A^T alpha``,
        copied, so the caller's array is never changed."""
        dta = np.array(design_t_alpha, dtype=float)
        return cls(shift, dta, np.abs(dta + shift), np.ones(dta.size, bool))

    def make_exact(self, p, alpha, cols):
        """Make the entries on ``cols`` exact at ``alpha``: gathered, or, when
        :func:`_gathered_products` returns None, all by one full product."""
        gathered = _gathered_products(p, cols, alpha)
        if gathered is None:
            self.design_t_alpha = p.design.T @ alpha
            self.exact[:] = True
        else:
            self.design_t_alpha[cols] = gathered
            self.exact[cols] = True

    def search_products(self, p, alpha, direction, reach):
        """The columns a line search from ``alpha`` along d must read, and
        ``A^T d`` on them; the entries there are made exact at ``alpha``.

        ``reach`` is ``||a_j||*||d||``, the most a step t <= 1 moves q_j.
        When every entry is exact and d is exactly ``b - alpha``, all columns,
        with ``A^T d = A^T b - A^T alpha`` from the problem's cached ``A^T b``:
        no product.  Else the columns with ``upper_j + reach_j > lam``, when
        :func:`_gathered_products` gathers them, by one pass over
        ``[alpha d]``.  Else all columns, by one full ``A^T d`` after the
        stale entries are made exact (:meth:`make_exact`).
        """
        if self.exact.all() and np.array_equal(direction, p.observations - alpha):
            return slice(None), p._design_t_b - self.design_t_alpha
        cols = np.flatnonzero(self.upper + reach > p.lam)
        both = _gathered_products(p, cols, np.column_stack((alpha, direction)))
        if both is not None:
            self.design_t_alpha[cols] = both[:, 0]
            return cols, both[:, 1]
        self.make_exact(p, alpha, np.flatnonzero(~self.exact))
        return slice(None), p.design.T @ direction

    def advance(self, cols, step, design_t_dir, reach):
        """Move to alpha + step*d: exact on ``cols``, where ``design_t_dir``
        holds A^T d; every other |q_j| grows by at most step*reach_j."""
        self.design_t_alpha[cols] += step * design_t_dir
        self.upper += step * reach
        self.upper[cols] = np.abs(self.design_t_alpha[cols] + self.shift[cols])
        self.exact[:] = False
        self.exact[cols] = True

    def rebase(self, p, alpha, shift):
        """Move to a new shift w/eta at the same alpha.

        Each |q_j| moves by at most |shift_j - old shift_j|, so every stale
        bound grows by that much: by |old shift_j| on a stale column, where
        the multiplier update left w_j = 0.  Every stale column whose bound
        then exceeds lam is made exact (:meth:`make_exact`), so every stale
        entry stays inactive, and a workspace, a multiplier update or a
        feasible scale reads the same active set and maximum as from a fresh
        product.
        """
        self.upper += np.abs(shift - self.shift)
        self.shift = shift
        self.make_exact(p, alpha, np.flatnonzero(~self.exact & (self.upper > p.lam)))
        exact = self.exact
        self.upper[exact] = np.abs(self.design_t_alpha[exact] + shift[exact])


def _line_search(ws, direction, grad, carried):
    """Armijo search from ws.alpha; returns the accepted alpha and step, and
    advances ``carried`` to the accepted alpha.

    A step t <= 1 along d moves q_j by at most ||a_j||*||d|| (Cauchy-Schwarz),
    so only the columns with ``upper_j + ||a_j||*||d|| > lam`` can be active
    at a trial point; the others add nothing to any trial objective, which
    runs over the columns :meth:`_CarriedProduct.search_products` returns.
    """
    p, eta, alpha = ws.p, ws.eta, ws.alpha
    slope = float(grad @ direction)
    if slope >= 0.0:
        direction = -grad
        slope = -float(grad @ grad)
    reach = float(np.linalg.norm(direction)) * p._column_norms
    cols, design_t_dir = carried.search_products(p, alpha, direction, reach)
    q = carried.design_t_alpha[cols] + carried.shift[cols]
    g0 = _objective_from_q(p, eta, alpha, q)
    step = 1.0
    while step >= _MIN_STEP:
        alpha_trial = alpha + step * direction
        g_trial = _objective_from_q(p, eta, alpha_trial, q + step * design_t_dir)
        if g_trial <= g0 + _LS_SUFFICIENT_DECREASE * step * slope:
            carried.advance(cols, step, design_t_dir, reach)
            return alpha_trial, step
        step *= _LS_SHRINK
    raise LineSearchError(
        f"step underflow below {_MIN_STEP:g}; gradient/objective inconsistency"
    )


def backtracking_line_search(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    alpha: np.ndarray,
    direction: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Armijo backtracking from unit step along ``direction``.

    Accepts the largest step in {1, s, s^2, ...} (s = ``_LS_SHRINK``) with
    sufficient decrease of the inner objective.  A non-descent direction
    falls back to steepest descent so decrease is always achievable.  Makes
    one fresh ``A^T alpha``, as :func:`inner_solve` does without ``carried``.
    """
    _check_positive("eta", eta)
    w = _vector(w, p.n, "w")
    alpha = _vector(alpha, p.m, "alpha")
    direction = _vector(direction, p.m, "direction")
    carried = _CarriedProduct.start(w / eta, p.design.T @ alpha)
    ws = inner_workspace(p, w, eta, alpha, carried.design_t_alpha)
    return _line_search(ws, direction, _gradient(ws), carried)


def _multiplier_step(ws, w):
    """||ST_{lam*eta}(w + eta*A^T alpha) - w|| / sqrt(eta), from q; O(n)."""
    # w + eta*A^T alpha = eta*q, and ST_{lam*eta}(eta*q) = eta*ST_lam(q).
    step = -w
    step[ws.active] += ws.eta * ws.shrunk
    return float(np.linalg.norm(step)) / math.sqrt(ws.eta)


def _inner_done(ws, w, gnorm, eps, progress_factor):
    """The inner stop rule: gnorm <= eps, or gnorm <= progress_factor times
    the multiplier step when a factor is given."""
    if gnorm <= eps:
        return True
    if progress_factor is None:
        return False
    threshold = progress_factor * _multiplier_step(ws, w)
    if not math.isfinite(threshold):
        raise NumericError("non-finite inner stop threshold")
    return gnorm <= threshold


def inner_solve(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    eps: float,
    alpha_start: np.ndarray,
    config: SolverConfig,
    progress_factor: float | None = None,
    carried: _CarriedProduct | None = None,
) -> tuple[np.ndarray, int, int, bool]:
    """Newton-iterate the inner problem from ``alpha_start`` until the gradient
    norm falls to ``eps`` or ``_MAX_INNER_NEWTON`` steps are taken.

    With ``progress_factor`` the loop also stops once the gradient norm is at
    most ``progress_factor * ||ST_{lam*eta}(w + eta*A^T alpha) - w|| /
    sqrt(eta)``, the primal-progress rule of the module docstring; it costs
    O(n) per step and no product, and a non-finite threshold raises
    :class:`NumericError`.  ``eps`` stays an always-on floor and is tested
    first.  ``eps``, ``eta`` and a given factor must be finite and positive.

    Returns the final alpha, the Newton steps, total CG iterations (zero for
    Cholesky) and whether the rule holds at that alpha; it is tested at every
    point, so at most ``_MAX_INNER_NEWTON + 1`` workspaces are built.  Each
    line search makes the products :func:`_line_search` lists.  ``carried``,
    the 8th parameter, is :func:`solve`'s :class:`_CarriedProduct` at
    ``alpha_start`` and shift ``w/eta``, whose stale entries are inactive; it
    is advanced in place to the returned alpha, and a k x k Cholesky step
    reads and replaces its kept Gram.  Without it the state starts here,
    exact everywhere, from one fresh ``A^T alpha_start``, with no Gram kept.
    """
    _check_positive("eps", eps)
    _check_positive("eta", eta)
    if progress_factor is not None:
        _check_positive("progress_factor", progress_factor)
    w = _vector(w, p.n, "w")
    # A copy: the returned alpha is never the caller's array.
    alpha = _vector(alpha_start, p.m, "alpha_start").copy()
    if carried is None:
        carried = _CarriedProduct.start(w / eta, p.design.T @ alpha)
    newton_iters = 0
    pcg_iters = 0
    while True:
        ws = inner_workspace(p, w, eta, alpha, carried.design_t_alpha)
        grad = _gradient(ws)
        gnorm = float(np.linalg.norm(grad))
        met = _inner_done(ws, w, gnorm, eps, progress_factor)
        if met or newton_iters == _MAX_INNER_NEWTON:
            return alpha, newton_iters, pcg_iters, met
        if config.inner_variant == "cholesky":
            direction = _newton_cholesky(ws, grad, carried)
        else:
            forcing = min(0.1, math.sqrt(gnorm))
            direction, used = _newton_pcg(ws, grad, forcing, _PCG_MAX_ITERS)
            pcg_iters += used
        alpha, _ = _line_search(ws, direction, grad, carried)
        newton_iters += 1


def outer_update(
    w: np.ndarray,
    alpha: np.ndarray,
    eta: float,
    p: ProblemInstance,
    design_t_alpha: np.ndarray | None = None,
) -> np.ndarray:
    """Multiplier refresh w <- ST_{lam*eta}(w + eta*A^T alpha); exactly sparse.

    ``design_t_alpha`` (= ``A^T alpha``) may be supplied to reuse a
    matrix-vector product computed by a solver loop.
    """
    _check_positive("eta", eta)
    w = _vector(w, p.n, "w")
    alpha = _vector(alpha, p.m, "alpha")
    if design_t_alpha is None:
        design_t_alpha = p.design.T @ alpha
    design_t_alpha = _vector(design_t_alpha, p.n, "design_t_alpha")
    return soft_threshold(w + eta * design_t_alpha, p.lam * eta)


def solve(
    p: ProblemInstance,
    config: SolverConfig | None = None,
    w_initial: np.ndarray | None = None,
) -> SolveReport:
    """Run the full outer loop until the relative duality gap meets tolerance.

    The inner solve warm-starts from the previous outer iteration's alpha
    (initially ``b * min(1, lam/||A^T b||_inf)``: the minimizer of the
    barrier-free quadratic term, scaled into the dual feasible set) and
    stops on primal progress or at the scheduled eps, whichever comes
    first.  After it, the gap of ``alpha * min(1, lam/||A^T alpha||_inf)``
    is computed from the carried ``A^T alpha`` (see the module docstring);
    only when it meets the tolerance is the residual certificate formed, and
    only that certificate ends the loop.  Exhausting ``max_outer`` flags the
    report non-converged rather than raising.
    """
    if config is None:
        config = SolverConfig()
    start = time.perf_counter()
    w = _starting_point(p, w_initial)
    eta = _starting_eta(p, config.eta_initial, config.inner_variant)
    eps = _EPS_INITIAL_SCALE * math.sqrt(p.m)
    objective_trace: list[float] = []
    gap_trace: list[float] = []
    newton_total = pcg_total = cap_hits = 0
    converged = False
    # Start at b scaled into the dual feasible set, as certificates scale
    # their candidates (see the module docstring), with the carried state at
    # that alpha.
    scale = _feasible_scale(p, p._design_t_b)
    alpha = scale * p.observations
    carried = _CarriedProduct.start(w / eta, scale * p._design_t_b)
    for k in range(1, config.max_outer + 1):
        retry = 1.0
        while True:
            eps_inner = max(retry * eps, _EPS_FLOOR)
            alpha, n_newton, n_pcg, met = inner_solve(
                p, w, eta, eps_inner, alpha, config, retry, carried
            )
            newton_total += n_newton
            pcg_total += n_pcg
            # A cap hit is a first-pass solve whose returned alpha misses its
            # stop rule; the descent retries below only refine it.
            if retry == 1.0 and not met:
                cap_hits += 1
            w_new = outer_update(w, alpha, eta, p, carried.design_t_alpha)
            residual = _residual(p, w_new)
            primal = _primal_value(p, w_new, residual)
            # An approximate inner solve can leak a tiny objective increase;
            # the exact update never does, so refine (warm-started, both stop
            # thresholds scaled by one retry factor) until the descent
            # contract is restored or the eps floor is hit.
            if not (
                objective_trace
                and primal > objective_trace[-1]
                and eps_inner > _EPS_FLOOR
            ):
                break
            retry *= 0.0625
        w = w_new
        if not math.isfinite(primal):
            raise NumericError(f"primal objective became non-finite at outer step {k}")
        # Rebase before the prescreen reads the vector: until then a stale
        # |A^T alpha_j| may exceed lam by the old shift.
        eta_next = min(eta * _ETA_GROWTH, _ETA_CAP)
        carried.rebase(p, alpha, w / eta_next)
        # Prescreen with alpha's own certificate (no product); the residual
        # one, which alone may end the loop, is formed only once it passes.
        gap = _certificate(p, primal, alpha, carried.design_t_alpha).relative_gap
        if gap <= config.outer_tolerance:
            design_t_residual = p.design.T @ residual
            gap = relative_duality_gap(p, w, residual, design_t_residual)
            converged = gap <= config.outer_tolerance
        objective_trace.append(primal)
        gap_trace.append(gap)
        if converged:
            break
        eta = eta_next
        eps *= _EPS_SHRINK
    return SolveReport(w, len(objective_trace), time.perf_counter() - start, converged,
                       objective_trace, gap_trace, newton_total, pcg_total, cap_hits)
