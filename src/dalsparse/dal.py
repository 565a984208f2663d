"""Dual augmented Lagrangian solver for the l2-l1 reconstruction problem.

The outer loop minimizes the primal objective through a sequence of smooth
dual subproblems: at outer iteration k, with barrier weight eta_k and primal
multiplier estimate w_k, the inner problem is

    minimize_alpha  g(alpha) = 0.5*||alpha - b||^2
                             + (eta_k/2)*||ST_lam(A^T alpha + w_k/eta_k)||^2

solved by a damped Newton method to gradient norm eps_k, after which the
multiplier is refreshed by w_{k+1} = ST_{lam*eta_k}(w_k + eta_k*A^T alpha_k)
and the schedules advance (eta grows geometrically, eps shrinks).  Every
iterate w_k is exactly sparse, and only the "active" columns of A (those with
|q_j| > lam for q = A^T alpha + w/eta) enter the inner gradient and Hessian,
so per-iteration cost tracks the sparsity of the current solution.

Two inner strategies are provided: a dense Cholesky factorization of the
m x m Newton system, and a diagonally preconditioned conjugate gradient
(truncated Newton) that only applies the Hessian matrix-free.  Both, and the
gradient, reach the active columns A+ only through :class:`InnerWorkspace`,
the active-set operator (``matvec``, ``rmatvec``, ``gram``, ``diag``).  It is
the one place that knows whether A+ was gathered into a copy or is applied
masked against the full design, and the one place that counts column touches.

Products with the whole design matrix dominate the cost of wide problems, so
``A^T alpha`` is carried through the loop instead of recomputed.  Each line
search already forms ``A^T d`` for its direction d and hands the accepted
point's ``A^T alpha + step*A^T d`` to the next Newton step; the multiplier
update reads the same vector; and ``A w`` is formed from the nonzero columns
of the sparse iterate.  :func:`solve` takes one fresh ``A^T alpha`` after
every inner solve (and after every descent retry), which is the only refresh
and bounds the rounding drift of the carried vector.  A solve therefore makes
about ``Newton steps + 3*outer iterations + 1`` full-design products: one per
Newton step (the line search), and per outer iteration the refresh plus the
two of the duality-gap certificate, plus ``A^T b`` at the start.  Masked
workspaces (see :class:`InnerWorkspace`) add their matrix-free products.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .certificates import relative_duality_gap
from .prox import ProblemInstance, _primal_value, soft_threshold

INNER_VARIANTS = ("cholesky", "pcg")


class LineSearchError(RuntimeError):
    """Backtracking shrank the step below the underflow floor.

    Signals an inconsistency between objective and gradient, not a normal
    convergence failure.
    """


class NumericError(RuntimeError):
    """Non-finite values encountered during a solve."""


@dataclass
class OpCounters:
    """Diagnostic effort counters (column touches of the design matrix).

    Each inner-gradient evaluation, Hessian assembly, and Hessian-vector
    application adds exactly the current active-set size.  Reset before a
    measurement; not synchronized across threads.
    """

    active_column_accesses: int = 0

    def reset(self) -> None:
        self.active_column_accesses = 0


counters = OpCounters()


@dataclass(frozen=True)
class SolverConfig:
    """Schedules, tolerances and caps for :func:`solve`.

    ``eta_initial=None`` resolves to ``1/lam`` at solve time; the best value
    is problem dependent and worth tuning per family.
    """

    eta_initial: float | None = None
    eta_growth: float = 2.0
    eps_initial_scale: float = 1e-4
    eps_shrink: float = 0.5
    outer_tolerance: float = 1e-3
    max_outer: int = 100
    max_inner_newton: int = 100
    inner_variant: str = "cholesky"
    pcg_max_iters: int = 500
    ls_shrink: float = 0.5
    ls_sufficient_decrease: float = 1e-4
    eta_cap: float = 1e12
    eps_floor: float = 1e-12

    def __post_init__(self):
        if self.eta_initial is not None and not self.eta_initial > 0:
            raise ValueError("eta_initial must be positive")
        if not self.eta_growth > 1:
            raise ValueError("eta_growth must exceed 1")
        if not self.eps_initial_scale > 0:
            raise ValueError("eps_initial_scale must be positive")
        if not 0 < self.eps_shrink < 1:
            raise ValueError("eps_shrink must lie in (0, 1)")
        if not self.outer_tolerance > 0:
            raise ValueError("outer_tolerance must be positive")
        if self.max_outer < 1 or self.max_inner_newton < 1 or self.pcg_max_iters < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.inner_variant not in INNER_VARIANTS:
            raise ValueError(f"inner_variant must be one of {INNER_VARIANTS}")
        if not 0 < self.ls_shrink < 1:
            raise ValueError("ls_shrink must lie in (0, 1)")
        if not self.ls_sufficient_decrease > 0:
            raise ValueError("ls_sufficient_decrease must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: final iterate, certificates, and effort accounting."""

    w_final: np.ndarray
    primal_value: float
    relative_gap: float
    outer_iters: int
    inner_newton_iters: int
    pcg_iters_total: int
    wall_time_seconds: float
    nnz_fraction: float
    converged: bool
    inner_cap_hits: int
    objective_trace: list[float]
    gap_trace: list[float]


# Gather limits: skip the submatrix copy once the active set stops being
# genuinely sparse (a quarter of the columns) or the copy itself gets large.
_GATHER_MAX_FRACTION = 0.25
_GATHER_MAX_ELEMENTS = 2**25


def compute_active_set(q: np.ndarray, lam: float) -> np.ndarray:
    """Indices j with |q_j| strictly above lam; boundary values are inactive."""
    return np.flatnonzero(np.abs(q) > lam)


def _gather_pays(p, k):
    """Whether copying k columns of the design beats masked full products."""
    return (
        k <= max(16, int(_GATHER_MAX_FRACTION * p.n))
        and k * p.m <= _GATHER_MAX_ELEMENTS
    )


@dataclass(frozen=True)
class InnerWorkspace:
    """The active-set operator A+ at one inner point (p, eta, alpha).

    Holds q = A^T alpha + w/eta, its active set, and the active columns of
    the design, gathered into ``active_cols``.  ``active_cols`` is None when
    the active set covers so much of the matrix that copying it would
    outweigh masked full-matrix products; the operator then runs matrix-free
    against the stored design.  ``matvec``, ``gram`` and ``diag`` each add
    the active-set size to :data:`counters`; ``rmatvec`` adds nothing.
    """

    p: ProblemInstance
    eta: float
    alpha: np.ndarray
    design_t_alpha: np.ndarray
    q: np.ndarray
    active: np.ndarray
    active_cols: np.ndarray | None

    def matvec(self, values: np.ndarray) -> np.ndarray:
        """A+ @ values."""
        counters.active_column_accesses += int(self.active.size)
        if self.active_cols is not None:
            return self.active_cols @ values
        full = np.zeros(self.p.n)
        full[self.active] = values
        return self.p.design @ full

    def rmatvec(self, vec: np.ndarray) -> np.ndarray:
        """A+^T @ vec."""
        if self.active_cols is not None:
            return self.active_cols.T @ vec
        return (self.p.design.T @ vec)[self.active]

    def gram(self) -> np.ndarray:
        """A+ A+^T, the m x m Gram matrix of the active columns."""
        return self._block_sum(lambda cols: cols @ cols.T)

    def diag(self) -> np.ndarray:
        """diag(A+ A+^T): row sums of the squared active columns."""
        return self._block_sum(lambda cols: np.einsum("ij,ij->i", cols, cols))

    def _block_sum(self, kernel):
        """Sum of kernel(block) over the blocks; the first result is the
        accumulator, so no zero-filled temporary is made."""
        counters.active_column_accesses += int(self.active.size)
        blocks = self._blocks()
        total = kernel(next(blocks))
        for cols in blocks:
            total += kernel(cols)
        return total

    def _blocks(self):
        """The gathered columns, or bounded chunks of the masked ones."""
        if self.active_cols is not None:
            yield self.active_cols
            return
        step = max(1, _GATHER_MAX_ELEMENTS // (4 * self.p.m))
        for lo in range(0, int(self.active.size), step):
            yield self.p.design[:, self.active[lo : lo + step]]


def inner_workspace(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    alpha: np.ndarray,
    design_t_alpha: np.ndarray | None = None,
) -> InnerWorkspace:
    """Build the active-set operator at alpha: q = A^T alpha + w/eta, its
    active set, and the active columns, gathered when copying them pays.

    ``design_t_alpha`` (= ``A^T alpha``) may be supplied to reuse a
    matrix-vector product computed by a solver loop.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    alpha = np.asarray(alpha, dtype=float)
    if design_t_alpha is None:
        design_t_alpha = p.design.T @ alpha
    q = design_t_alpha + np.asarray(w, dtype=float) / eta
    active = compute_active_set(q, p.lam)
    cols = p.design[:, active] if _gather_pays(p, active.size) else None
    return InnerWorkspace(p, eta, alpha, design_t_alpha, q, active, cols)


def _objective_from_q(p, eta, alpha, q):
    st = soft_threshold(q, p.lam)
    diff = alpha - p.observations
    return 0.5 * float(diff @ diff) + 0.5 * eta * float(st @ st)


def inner_objective(
    p: ProblemInstance, w: np.ndarray, eta: float, alpha: np.ndarray
) -> float:
    """Inner objective 0.5*||alpha - b||^2 + (eta/2)*||ST_lam(A^T alpha + w/eta)||^2."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    q = p.design.T @ np.asarray(alpha, dtype=float) + np.asarray(w, dtype=float) / eta
    return _objective_from_q(p, eta, np.asarray(alpha, dtype=float), q)


def _gradient(ws):
    # ST_lam restricted to the active set: q_j - lam*sign(q_j) there, 0 elsewhere.
    qa = ws.q[ws.active]
    shrunk = qa - ws.p.lam * np.sign(qa)
    return ws.alpha - ws.p.observations + ws.eta * ws.matvec(shrunk)


def inner_gradient(
    p: ProblemInstance, w: np.ndarray, eta: float, alpha: np.ndarray
) -> np.ndarray:
    """Gradient alpha - b + eta*A*ST_lam(q); the product runs over active columns only."""
    return _gradient(inner_workspace(p, w, eta, alpha))


def _newton_cholesky(ws, grad):
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient passed to Newton solve")
    if ws.active.size == 0:
        return -grad
    hess = ws.gram()
    hess *= ws.eta
    hess[np.diag_indices_from(hess)] += 1.0
    if not np.all(np.isfinite(hess)):
        raise NumericError("non-finite Hessian assembled")
    try:
        factor = cho_factor(hess, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc
    return cho_solve(factor, -grad, check_finite=False)


def newton_direction_cholesky(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    alpha: np.ndarray,
    grad: np.ndarray,
) -> np.ndarray:
    """Solve (I + eta*A+ A+^T) y = -grad by dense Cholesky factorization."""
    ws = inner_workspace(p, w, eta, alpha)
    return _newton_cholesky(ws, np.asarray(grad, dtype=float))


def _newton_pcg(ws, grad, tol, max_iters):
    diag = 1.0 + ws.eta * ws.diag()
    rhs = -grad
    rhs_norm = float(np.linalg.norm(rhs))
    y = np.zeros(grad.shape[0])
    if rhs_norm == 0.0:
        return y, 0
    r = rhs.copy()
    z = r / diag
    pvec = z.copy()
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
    direction and the number of CG iterations spent.
    """
    ws = inner_workspace(p, w, eta, alpha)
    return _newton_pcg(ws, np.asarray(grad, dtype=float), tol, max_iters)


def _line_search(ws, direction, grad, shrink, sufficient_decrease, min_step=1e-16):
    """Armijo search from ws.alpha; returns the accepted alpha, step and A^T alpha."""
    p, eta, alpha = ws.p, ws.eta, ws.alpha
    g0 = _objective_from_q(p, eta, alpha, ws.q)
    slope = float(grad @ direction)
    if slope >= 0.0:
        direction = -grad
        slope = -float(grad @ grad)
    # One transposed product per search; each trial is then O(m + n).
    design_t_dir = p.design.T @ direction
    step = 1.0
    while step >= min_step:
        alpha_trial = alpha + step * direction
        g_trial = _objective_from_q(p, eta, alpha_trial, ws.q + step * design_t_dir)
        if g_trial <= g0 + sufficient_decrease * step * slope:
            return alpha_trial, step, ws.design_t_alpha + step * design_t_dir
        step *= shrink
    raise LineSearchError(
        f"step underflow below {min_step:g}; gradient/objective inconsistency"
    )


def backtracking_line_search(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    alpha: np.ndarray,
    direction: np.ndarray,
    shrink: float = 0.5,
    sufficient_decrease: float = 1e-4,
    min_step: float = 1e-16,
) -> tuple[np.ndarray, float]:
    """Armijo backtracking from unit step along ``direction``.

    Accepts the largest step in {1, shrink, shrink^2, ...} with sufficient
    decrease of the inner objective.  A non-descent direction falls back to
    steepest descent so decrease is always achievable.
    """
    ws = inner_workspace(p, w, eta, alpha)
    direction = np.asarray(direction, dtype=float)
    alpha, step, _ = _line_search(
        ws, direction, _gradient(ws), shrink, sufficient_decrease, min_step
    )
    return alpha, step


def inner_solve(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    eps: float,
    alpha_start: np.ndarray,
    config: SolverConfig,
    design_t_alpha: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Newton-iterate the inner problem from ``alpha_start`` until the gradient
    norm falls to ``eps`` or the iteration cap is reached.

    Returns the final alpha, the Newton steps taken, and total CG iterations
    (zero for the Cholesky variant).  ``design_t_alpha`` (= ``A^T
    alpha_start``) may be supplied to reuse a matrix-vector product computed
    by a solver loop; each step then makes one full-design product, in its
    line search.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    alpha = np.array(alpha_start, dtype=float)
    newton_iters = 0
    pcg_iters = 0
    for _ in range(config.max_inner_newton):
        ws = inner_workspace(p, w, eta, alpha, design_t_alpha)
        grad = _gradient(ws)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= eps:
            break
        if config.inner_variant == "cholesky":
            direction = _newton_cholesky(ws, grad)
        else:
            forcing = min(0.1, math.sqrt(gnorm))
            direction, used = _newton_pcg(ws, grad, forcing, config.pcg_max_iters)
            pcg_iters += used
        alpha, _, design_t_alpha = _line_search(
            ws, direction, grad, config.ls_shrink, config.ls_sufficient_decrease
        )
        newton_iters += 1
    return alpha, newton_iters, pcg_iters


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
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    w = np.asarray(w, dtype=float)
    if design_t_alpha is None:
        design_t_alpha = p.design.T @ np.asarray(alpha, dtype=float)
    return soft_threshold(w + eta * design_t_alpha, p.lam * eta)


def _residual(p, w):
    """A w - b, formed from the nonzero columns of w while they are few."""
    nz = np.flatnonzero(w)
    if _gather_pays(p, nz.size):
        return p.design[:, nz] @ w[nz] - p.observations
    return p.design @ w - p.observations


def solve(
    p: ProblemInstance,
    config: SolverConfig | None = None,
    w_initial: np.ndarray | None = None,
) -> SolveReport:
    """Run the full outer loop until the relative duality gap meets tolerance.

    The inner solve warm-starts from the previous outer iteration's alpha
    (initially alpha = b, the minimizer of the barrier-free quadratic term).
    Exhausting ``max_outer`` flags the report non-converged rather than
    raising.
    """
    if config is None:
        config = SolverConfig()
    if w_initial is None:
        w = np.zeros(p.n)
    else:
        w = np.array(w_initial, dtype=float).ravel()
        if w.shape[0] != p.n:
            raise ValueError(f"w_initial has length {w.shape[0]}, expected {p.n}")
    eta = config.eta_initial if config.eta_initial is not None else 1.0 / p.lam
    eta = min(eta, config.eta_cap)
    eps = max(config.eps_initial_scale * math.sqrt(p.m), config.eps_floor)
    alpha = p.observations.copy()
    objective_trace: list[float] = []
    gap_trace: list[float] = []
    newton_total = pcg_total = cap_hits = 0
    converged = False
    primal = math.inf
    gap = math.inf
    start = time.perf_counter()
    design_t_alpha = p.design.T @ alpha
    for k in range(1, config.max_outer + 1):
        eps_inner = eps
        while True:
            alpha, n_newton, n_pcg = inner_solve(
                p, w, eta, eps_inner, alpha, config, design_t_alpha
            )
            newton_total += n_newton
            pcg_total += n_pcg
            # The one fresh A^T alpha per inner solve: it resets the drift the
            # line searches' updates accumulate, and everything below reuses it.
            design_t_alpha = p.design.T @ alpha
            # Cap hits count the solve at the scheduled eps, not the descent
            # retries below that refine it.
            if eps_inner == eps and n_newton >= config.max_inner_newton:
                ws = inner_workspace(p, w, eta, alpha, design_t_alpha)
                if float(np.linalg.norm(_gradient(ws))) > eps:
                    cap_hits += 1
            w_new = outer_update(w, alpha, eta, p, design_t_alpha)
            residual = _residual(p, w_new)
            primal = _primal_value(p, w_new, residual)
            # An eps-approximate inner solve can leak a tiny objective
            # increase; the exact update never does, so refine (warm-started)
            # until the descent contract is restored or the eps floor is hit.
            if not (
                objective_trace
                and primal > objective_trace[-1]
                and eps_inner > config.eps_floor
            ):
                break
            eps_inner = max(0.0625 * eps_inner, config.eps_floor)
        w = w_new
        design_t_residual = p.design.T @ residual
        if not math.isfinite(primal):
            raise NumericError(f"primal objective became non-finite at outer step {k}")
        gap = relative_duality_gap(p, w, residual, design_t_residual)
        objective_trace.append(primal)
        gap_trace.append(gap)
        if gap <= config.outer_tolerance:
            converged = True
            break
        eta = min(eta * config.eta_growth, config.eta_cap)
        eps = max(eps * config.eps_shrink, config.eps_floor)
    wall = time.perf_counter() - start
    return SolveReport(
        w_final=w,
        primal_value=primal,
        relative_gap=gap,
        outer_iters=len(objective_trace),
        inner_newton_iters=newton_total,
        pcg_iters_total=pcg_total,
        wall_time_seconds=wall,
        nnz_fraction=float(np.count_nonzero(w)) / p.n,
        converged=converged,
        inner_cap_hits=cap_hits,
        objective_trace=objective_trace,
        gap_trace=gap_trace,
    )
