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
(truncated Newton) that only applies the Hessian matrix-free.

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
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .certificates import relative_duality_gap
from .prox import ProblemInstance, soft_threshold

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


@dataclass
class SolverState:
    """Mutable loop state: current iterates, schedule values and traces."""

    w: np.ndarray
    alpha: np.ndarray
    eta: float
    eps: float
    outer_iter: int = 0
    inner_newton_total: int = 0
    objective_trace: list[float] = field(default_factory=list)
    gap_trace: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class InnerWorkspace:
    """Per-evaluation scratch: q = A^T alpha + w/eta, its active set, and the
    gathered active columns of the design matrix.

    ``active_cols`` is None when the active set covers so much of the matrix
    that copying it would outweigh masked full-matrix products; the product
    helpers then run matrix-free against the stored design.
    """

    q: np.ndarray
    active: np.ndarray
    active_cols: np.ndarray | None


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


def inner_workspace(
    p: ProblemInstance,
    w: np.ndarray,
    eta: float,
    alpha: np.ndarray,
    design_t_alpha: np.ndarray | None = None,
) -> InnerWorkspace:
    """Evaluate q = A^T alpha + w/eta and gather the active columns.

    ``design_t_alpha`` (= ``A^T alpha``) may be supplied to reuse a
    matrix-vector product computed by a solver loop.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if design_t_alpha is None:
        design_t_alpha = p.design.T @ alpha
    q = design_t_alpha + np.asarray(w, dtype=float) / eta
    active = compute_active_set(q, p.lam)
    cols = p.design[:, active] if _gather_pays(p, active.size) else None
    return InnerWorkspace(q=q, active=active, active_cols=cols)


def _active_product(p, ws, values):
    """A+ @ values, matrix-free on the masked path."""
    if ws.active_cols is not None:
        return ws.active_cols @ values
    full = np.zeros(p.n)
    full[ws.active] = values
    return p.design @ full


def _active_transpose_product(p, ws, vec):
    """A+^T @ vec restricted to the active coordinates."""
    if ws.active_cols is not None:
        return ws.active_cols.T @ vec
    return (p.design.T @ vec)[ws.active]


def _active_square_row_sums(p, ws):
    """Row sums of the squared active columns, chunked to bound transients."""
    if ws.active_cols is not None:
        return np.einsum("ij,ij->i", ws.active_cols, ws.active_cols)
    out = np.zeros(p.m)
    step = max(1, _GATHER_MAX_ELEMENTS // (4 * p.m))
    for lo in range(0, int(ws.active.size), step):
        cols = p.design[:, ws.active[lo : lo + step]]
        out += np.einsum("ij,ij->i", cols, cols)
    return out


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


def _gradient_from_ws(p, eta, alpha, ws):
    # ST_lam restricted to the active set: q_j - lam*sign(q_j) there, 0 elsewhere.
    g = alpha - p.observations
    if ws.active.size:
        qa = ws.q[ws.active]
        counters.active_column_accesses += int(ws.active.size)
        g = g + eta * _active_product(p, ws, qa - p.lam * np.sign(qa))
    return g


def inner_gradient(
    p: ProblemInstance, w: np.ndarray, eta: float, alpha: np.ndarray
) -> np.ndarray:
    """Gradient alpha - b + eta*A*ST_lam(q); the product runs over active columns only."""
    alpha = np.asarray(alpha, dtype=float)
    ws = inner_workspace(p, w, eta, alpha)
    return _gradient_from_ws(p, eta, alpha, ws)


def _newton_direction_cholesky_ws(p, eta, grad, ws):
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient passed to Newton solve")
    if ws.active.size == 0:
        return -grad
    counters.active_column_accesses += int(ws.active.size)
    if ws.active_cols is not None:
        hess = eta * (ws.active_cols @ ws.active_cols.T)
    else:
        # accumulate the Gram matrix over bounded column chunks
        hess = np.zeros((p.m, p.m))
        step = max(1, _GATHER_MAX_ELEMENTS // (4 * p.m))
        for lo in range(0, int(ws.active.size), step):
            cols = p.design[:, ws.active[lo : lo + step]]
            hess += cols @ cols.T
        hess *= eta
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
    return _newton_direction_cholesky_ws(p, eta, np.asarray(grad, dtype=float), ws)


def _newton_direction_pcg_ws(p, eta, grad, ws, tol, max_iters):
    n_active = int(ws.active.size)
    m = grad.shape[0]
    diag = np.ones(m)
    if n_active:
        counters.active_column_accesses += n_active
        diag += eta * _active_square_row_sums(p, ws)
    rhs = -grad
    rhs_norm = float(np.linalg.norm(rhs))
    y = np.zeros(m)
    if rhs_norm == 0.0:
        return y, 0
    r = rhs.copy()
    z = r / diag
    pvec = z.copy()
    rz = float(r @ z)
    iters = 0
    for _ in range(max_iters):
        if n_active:
            counters.active_column_accesses += n_active
            hp = pvec + eta * _active_product(
                p, ws, _active_transpose_product(p, ws, pvec)
            )
        else:
            hp = pvec.copy()
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
    return _newton_direction_pcg_ws(
        p, eta, np.asarray(grad, dtype=float), ws, tol, max_iters
    )


def _line_search_ws(
    p,
    eta,
    alpha,
    direction,
    grad,
    q0,
    g0,
    design_t_alpha,
    shrink,
    sufficient_decrease,
    min_step,
):
    """Armijo search; returns the accepted alpha, its step and its A^T alpha."""
    slope = float(grad @ direction)
    if slope >= 0.0:
        direction = -grad
        slope = -float(grad @ grad)
    # One transposed product per search; each trial is then O(m + n).
    design_t_dir = p.design.T @ direction
    step = 1.0
    while step >= min_step:
        alpha_trial = alpha + step * direction
        g_trial = _objective_from_q(p, eta, alpha_trial, q0 + step * design_t_dir)
        if g_trial <= g0 + sufficient_decrease * step * slope:
            return alpha_trial, step, design_t_alpha + step * design_t_dir
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
    alpha = np.asarray(alpha, dtype=float)
    direction = np.asarray(direction, dtype=float)
    design_t_alpha = p.design.T @ alpha
    ws = inner_workspace(p, w, eta, alpha, design_t_alpha)
    grad = _gradient_from_ws(p, eta, alpha, ws)
    g0 = _objective_from_q(p, eta, alpha, ws.q)
    alpha, step, _ = _line_search_ws(
        p,
        eta,
        alpha,
        direction,
        grad,
        ws.q,
        g0,
        design_t_alpha,
        shrink,
        sufficient_decrease,
        min_step,
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
    if design_t_alpha is None:
        design_t_alpha = p.design.T @ alpha
    newton_iters = 0
    pcg_iters = 0
    for _ in range(config.max_inner_newton):
        ws = inner_workspace(p, w, eta, alpha, design_t_alpha)
        grad = _gradient_from_ws(p, eta, alpha, ws)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= eps:
            break
        if config.inner_variant == "cholesky":
            direction = _newton_direction_cholesky_ws(p, eta, grad, ws)
        else:
            forcing = min(0.1, math.sqrt(gnorm))
            direction, used = _newton_direction_pcg_ws(
                p, eta, grad, ws, forcing, config.pcg_max_iters
            )
            pcg_iters += used
        g0 = _objective_from_q(p, eta, alpha, ws.q)
        alpha, _, design_t_alpha = _line_search_ws(
            p,
            eta,
            alpha,
            direction,
            grad,
            ws.q,
            g0,
            design_t_alpha,
            config.ls_shrink,
            config.ls_sufficient_decrease,
            1e-16,
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
    state = SolverState(w=w, alpha=p.observations.copy(), eta=eta, eps=eps)
    pcg_total = 0
    cap_hits = 0
    converged = False
    primal = math.inf
    gap = math.inf
    start = time.perf_counter()
    design_t_alpha = p.design.T @ state.alpha
    for k in range(1, config.max_outer + 1):
        alpha, n_newton, n_pcg = inner_solve(
            p, state.w, state.eta, state.eps, state.alpha, config, design_t_alpha
        )
        # The one fresh A^T alpha per inner solve: it resets the drift the
        # line searches' updates accumulate, and everything below reuses it.
        design_t_alpha = p.design.T @ alpha
        if n_newton >= config.max_inner_newton:
            ws = inner_workspace(p, state.w, state.eta, alpha, design_t_alpha)
            residual_grad = _gradient_from_ws(p, state.eta, alpha, ws)
            if float(np.linalg.norm(residual_grad)) > state.eps:
                cap_hits += 1
        w_new = outer_update(state.w, alpha, state.eta, p, design_t_alpha)
        residual = _residual(p, w_new)
        primal = 0.5 * float(residual @ residual) + p.lam * float(np.abs(w_new).sum())
        # An eps-approximate inner solve can leak a tiny objective increase;
        # the exact update never does, so refine (warm-started) until the
        # descent contract is restored or the eps floor is reached.
        eps_retry = state.eps
        while (
            state.objective_trace
            and primal > state.objective_trace[-1]
            and eps_retry > config.eps_floor
        ):
            eps_retry = max(0.0625 * eps_retry, config.eps_floor)
            alpha, extra_newton, extra_pcg = inner_solve(
                p, state.w, state.eta, eps_retry, alpha, config, design_t_alpha
            )
            n_newton += extra_newton
            pcg_total += extra_pcg
            design_t_alpha = p.design.T @ alpha
            w_new = outer_update(state.w, alpha, state.eta, p, design_t_alpha)
            residual = _residual(p, w_new)
            primal = 0.5 * float(residual @ residual) + p.lam * float(
                np.abs(w_new).sum()
            )
        state.w = w_new
        state.alpha = alpha
        state.outer_iter = k
        state.inner_newton_total += n_newton
        pcg_total += n_pcg
        design_t_residual = p.design.T @ residual
        if not math.isfinite(primal):
            raise NumericError(f"primal objective became non-finite at outer step {k}")
        gap = relative_duality_gap(p, state.w, residual, design_t_residual)
        state.objective_trace.append(primal)
        state.gap_trace.append(gap)
        if gap <= config.outer_tolerance:
            converged = True
            break
        state.eta = min(state.eta * config.eta_growth, config.eta_cap)
        state.eps = max(state.eps * config.eps_shrink, config.eps_floor)
    wall = time.perf_counter() - start
    return SolveReport(
        w_final=state.w,
        primal_value=primal,
        relative_gap=gap,
        outer_iters=state.outer_iter,
        inner_newton_iters=state.inner_newton_total,
        pcg_iters_total=pcg_total,
        wall_time_seconds=wall,
        nnz_fraction=float(np.count_nonzero(state.w)) / p.n,
        converged=converged,
        inner_cap_hits=cap_hits,
        objective_trace=list(state.objective_trace),
        gap_trace=list(state.gap_trace),
    )
