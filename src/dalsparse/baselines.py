"""Iterative shrinkage/thresholding baselines with constant and spectral steps.

One step of the proximal-gradient map is

    w <- ST_{lam*tau}(w - tau * A^T (A w - b)),

iterated with either a fixed step ``tau`` (valid below 2/L for
L = ||A||_2^2, checked against a power-iteration estimate) or the
Barzilai-Borwein spectral step.  The spectral step is clamped to
[tau_min, tau_max] and safeguarded by the non-monotone acceptance test of
SpaRSA (Wright, Nowak & Figueiredo, IEEE TSP 2009): a trial point is accepted
only if its objective lies below the largest of the last ``NONMONOTONE_MEMORY``
accepted objectives by a sufficient-decrease margin (the max-of-last-M rule of
Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal. 1986); otherwise the step
is halved.  The loop shares the duality-gap stopping rule used by the main
solver so the two families report comparable convergence effort.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .certificates import relative_duality_gap
from .dal import NumericError, SolveReport
from .prox import ProblemInstance, _primal_value, soft_threshold

STEP_RULES = ("constant", "bb")

# Non-monotone acceptance of the BB step: a trial w+ is accepted when
# F(w+) <= max(F over the last NONMONOTONE_MEMORY accepted iterates)
#           - SUFFICIENT_DECREASE / (2 tau) * ||w+ - w||^2.
NONMONOTONE_MEMORY = 5
SUFFICIENT_DECREASE = 1e-2


@dataclass(frozen=True)
class IstConfig:
    """Step rule and termination settings for :func:`ist_solve`.

    ``tau`` is required for the constant rule and validated against the
    spectral bound at solve setup; the BB rule ignores it, clamps its
    spectral estimates to [tau_min, tau_max] and halves a step that fails the
    non-monotone acceptance test, never below tau_min.
    """

    step_rule: str = "bb"
    tau: float | None = None
    tau_min: float = 1e-8
    tau_max: float = 1e8
    tolerance: float = 1e-3
    max_iters: int = 50000

    def __post_init__(self):
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"step_rule must be one of {STEP_RULES}")
        if self.step_rule == "constant":
            if self.tau is None or not self.tau > 0:
                raise ValueError("constant step rule requires a positive tau")
        if not 0 < self.tau_min <= self.tau_max:
            raise ValueError("need 0 < tau_min <= tau_max")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def estimate_spectral_norm_sq(design: np.ndarray, n_iters: int = 100) -> float:
    """Power-iteration estimate of ||A||_2^2 (largest eigenvalue of A^T A).

    Deterministic: starts from the all-ones direction.
    """
    design = np.asarray(design, dtype=float)
    v = np.ones(design.shape[1])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(n_iters):
        u = design.T @ (design @ v)
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            return 0.0
        value = norm
        v = u / norm
    return value


def ist_step(p: ProblemInstance, w: np.ndarray, tau: float) -> np.ndarray:
    """One proximal-gradient step ST_{lam*tau}(w - tau*A^T(A w - b))."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    w = np.asarray(w, dtype=float)
    grad = p.design.T @ (p.design @ w - p.observations)
    return soft_threshold(w - tau * grad, p.lam * tau)


def bb_step(
    w_prev: np.ndarray,
    w_curr: np.ndarray,
    grad_prev: np.ndarray,
    grad_curr: np.ndarray,
    tau_min: float = 1e-8,
    tau_max: float = 1e8,
) -> float:
    """Barzilai-Borwein step s^T s / s^T y, clamped to [tau_min, tau_max].

    ``y`` uses gradients of the smooth part A^T(A w - b); non-positive
    curvature s^T y falls back to tau_max.
    """
    s = np.asarray(w_curr, dtype=float) - np.asarray(w_prev, dtype=float)
    y = np.asarray(grad_curr, dtype=float) - np.asarray(grad_prev, dtype=float)
    sty = float(s @ y)
    if sty <= 0.0:
        return tau_max
    return min(max(float(s @ s) / sty, tau_min), tau_max)


def ist_solve(
    p: ProblemInstance,
    config: IstConfig | None = None,
    w_initial: np.ndarray | None = None,
) -> SolveReport:
    """Iterate :func:`ist_step` until the relative duality gap meets tolerance.

    The gap is evaluated at every iterate (including the start, so an already
    optimal ``w_initial`` converges at iteration 0) from the residual and
    gradient the step computes anyway.  Under the BB rule each iteration
    starts from the spectral step and halves it until the trial point passes
    the non-monotone acceptance test (or the step reaches ``tau_min``, where
    the trial is taken as is).  A rejected trial costs one ``A w`` product;
    the gradient is formed only for the accepted point.  ``outer_iters``
    counts accepted steps, and ``objective_trace`` holds one value per
    accepted iterate.  Reports in the same shape as the main solver;
    ``inner_newton_iters`` and ``pcg_iters_total`` stay zero.
    """
    if config is None:
        config = IstConfig()
    if w_initial is None:
        w = np.zeros(p.n)
    else:
        w = np.array(w_initial, dtype=float).ravel()
        if w.shape[0] != p.n:
            raise ValueError(f"w_initial has length {w.shape[0]}, expected {p.n}")
    lipschitz = estimate_spectral_norm_sq(p.design)
    if config.step_rule == "constant":
        if lipschitz > 0.0 and not config.tau < 2.0 / lipschitz:
            raise ValueError(
                f"constant tau = {config.tau:g} violates the convergence bound "
                f"2/L = {2.0 / lipschitz:g}"
            )
        tau = config.tau
    else:
        tau = 1.0 / lipschitz if lipschitz > 0.0 else 1.0
        tau = min(max(tau, config.tau_min), config.tau_max)

    start = time.perf_counter()
    residual = p.design @ w - p.observations
    grad = p.design.T @ residual
    primal = _primal_value(p, w, residual)
    objective_trace: list[float] = []
    gap_trace: list[float] = []
    converged = False
    iters = 0
    gap = math.inf
    w_prev = None
    grad_prev = None
    for it in range(config.max_iters + 1):
        if not math.isfinite(primal):
            raise NumericError(f"objective became non-finite at iteration {it}")
        gap = relative_duality_gap(p, w, residual, grad)
        objective_trace.append(primal)
        gap_trace.append(gap)
        iters = it
        if gap <= config.tolerance:
            converged = True
            break
        if it == config.max_iters:
            break
        if config.step_rule == "bb" and w_prev is not None:
            tau = bb_step(w_prev, w, grad_prev, grad, config.tau_min, config.tau_max)
        w_prev, grad_prev = w, grad
        reference = max(objective_trace[-NONMONOTONE_MEMORY:])
        while True:
            w = soft_threshold(w_prev - tau * grad_prev, p.lam * tau)
            residual = p.design @ w - p.observations
            primal = _primal_value(p, w, residual)
            if config.step_rule == "constant" or tau <= config.tau_min:
                break
            step = w - w_prev
            if primal <= reference - SUFFICIENT_DECREASE / (2.0 * tau) * float(step @ step):
                break
            tau = max(0.5 * tau, config.tau_min)
        grad = p.design.T @ residual
    wall = time.perf_counter() - start
    return SolveReport(
        w_final=w,
        primal_value=primal,
        relative_gap=gap,
        outer_iters=iters,
        inner_newton_iters=0,
        pcg_iters_total=0,
        wall_time_seconds=wall,
        nnz_fraction=float(np.count_nonzero(w)) / p.n,
        converged=converged,
        inner_cap_hits=0,
        objective_trace=objective_trace,
        gap_trace=gap_trace,
    )
