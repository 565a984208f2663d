"""Iterative shrinkage/thresholding baselines with constant and spectral steps.

One step of the proximal-gradient map is

    w <- ST_{lam*tau}(w - tau * A^T (A w - b)),

iterated with either the constant step ``tau = 1/L`` for L = ||A||_2^2, taken
from a power-iteration estimate, or the Barzilai-Borwein spectral step
started at ``tau = 1``, which needs no estimate.  The spectral step is
clamped to [TAU_MIN, TAU_MAX] and safeguarded by the non-monotone acceptance
test of SpaRSA (Wright, Nowak & Figueiredo, IEEE TSP 2009): a trial point is
accepted only if its objective lies below the largest of the last
``NONMONOTONE_MEMORY`` accepted objectives by a sufficient-decrease margin
(the max-of-last-M rule of Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal.
1986); otherwise the step is halved.  The loop shares the duality-gap
stopping rule used by the main solver so the two families report comparable
convergence effort.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .certificates import relative_duality_gap
from .dal import NumericError, SolveReport, SolverConfig
from .probgen import _rng
from .prox import (
    ProblemInstance, _check_cap, _check_positive, _primal_value, _residual, _starting_point,
    _vector, soft_threshold,
)

STEP_RULES = ("constant", "bb")
_POWER_ITERS = 100  # steps of the spectral-norm power iteration

# Non-monotone acceptance of the BB step: a trial w+ is accepted when
# F(w+) <= max(F over the last NONMONOTONE_MEMORY accepted iterates)
#           - SUFFICIENT_DECREASE / (2 tau) * ||w+ - w||^2.
NONMONOTONE_MEMORY = 5
SUFFICIENT_DECREASE = 1e-2
# Every BB-rule step, the first (tau = 1) and halved ones included, stays in
# [TAU_MIN, TAU_MAX].
TAU_MIN = 1e-8
TAU_MAX = 1e8


@dataclass(frozen=True)
class IstConfig:
    """Step rule and termination settings for :func:`ist_solve`: three fields.

    The constant rule steps at ``1/L``; the BB rule clamps its spectral
    estimates to [TAU_MIN, TAU_MAX] and halves a step that fails the
    non-monotone acceptance test, never below TAU_MIN.  ``tolerance``
    defaults to DAL's ``SolverConfig.outer_tolerance``: both families stop at
    the same relative duality gap.  ``max_iters`` is an integer of at least 1.
    """

    step_rule: str = "bb"
    tolerance: float = SolverConfig.outer_tolerance
    max_iters: int = 50000

    def __post_init__(self):
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"step_rule must be one of {STEP_RULES}")
        _check_positive("tolerance", self.tolerance)
        _check_cap("max_iters", self.max_iters)


def estimate_spectral_norm_sq(design: np.ndarray) -> float:
    """Power-iteration estimate of ||A||_2^2 (largest eigenvalue of A^T A).

    Deterministic: ``_POWER_ITERS`` steps from one fixed Philox-drawn
    direction, whose step gives zero only when A = 0; a zero step returns 0.0.
    """
    design = np.asarray(design, dtype=float)
    u = _rng(0).standard_normal(design.shape[1])
    value = 0.0
    for _ in range(_POWER_ITERS):
        u = design.T @ (design @ (u / np.linalg.norm(u)))
        value = float(np.linalg.norm(u))
        if value == 0.0:
            break
    return value


def ist_step(p: ProblemInstance, w: np.ndarray, tau: float) -> np.ndarray:
    """One proximal-gradient step ST_{lam*tau}(w - tau*A^T(A w - b))."""
    _check_positive("tau", tau)
    w = _vector(w, p.n, "w")
    grad = p.design.T @ _residual(p, w)
    return soft_threshold(w - tau * grad, p.lam * tau)


def bb_step(
    w_prev: np.ndarray,
    w_curr: np.ndarray,
    grad_prev: np.ndarray,
    grad_curr: np.ndarray,
) -> float:
    """Barzilai-Borwein step s^T s / s^T y, clamped to [TAU_MIN, TAU_MAX].

    ``y`` uses gradients of the smooth part A^T(A w - b); non-positive
    curvature s^T y falls back to TAU_MAX.
    """
    s = np.asarray(w_curr, dtype=float) - np.asarray(w_prev, dtype=float)
    y = np.asarray(grad_curr, dtype=float) - np.asarray(grad_prev, dtype=float)
    sty = float(s @ y)
    if sty <= 0.0:
        return TAU_MAX
    return min(max(float(s @ s) / sty, TAU_MIN), TAU_MAX)


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
    the non-monotone acceptance test (or the step reaches ``TAU_MIN``, where
    the trial is taken as is).  A rejected trial costs one ``A w``, over the
    nonzero columns of a sparse trial (:func:`dalsparse.prox._residual`); the
    gradient is formed only for the accepted point.  ``outer_iters`` counts
    accepted steps, and ``objective_trace`` holds one value per accepted
    iterate.  Reports in the same shape as the main solver, with DAL's inner
    effort counts left at their default of 0.

    The constant rule makes one :func:`estimate_spectral_norm_sq` per solve,
    counted in ``wall_time_seconds``, and steps at ``tau = 1/L`` (1 when the
    estimate is 0).  The BB rule makes none and starts at ``tau = 1``.
    """
    if config is None:
        config = IstConfig()
    start = time.perf_counter()
    w = _starting_point(p, w_initial)
    tau = 1.0
    if config.step_rule == "constant":
        lipschitz = estimate_spectral_norm_sq(p.design)
        if lipschitz > 0.0:
            tau = 1.0 / lipschitz

    residual = _residual(p, w)
    primal = _primal_value(p, w, residual)
    objective_trace: list[float] = []
    gap_trace: list[float] = []
    converged = False
    w_prev = grad_prev = None
    for it in range(config.max_iters + 1):
        grad = p.design.T @ residual
        if not math.isfinite(primal):
            raise NumericError(f"objective became non-finite at iteration {it}")
        gap = relative_duality_gap(p, w, residual, grad)
        objective_trace.append(primal)
        gap_trace.append(gap)
        if gap <= config.tolerance:
            converged = True
            break
        if it == config.max_iters:
            break
        if config.step_rule == "bb" and w_prev is not None:
            tau = bb_step(w_prev, w, grad_prev, grad)
        w_prev, grad_prev = w, grad
        reference = max(objective_trace[-NONMONOTONE_MEMORY:])
        while True:
            w = soft_threshold(w_prev - tau * grad_prev, p.lam * tau)
            residual = _residual(p, w)
            primal = _primal_value(p, w, residual)
            if config.step_rule == "constant" or tau <= TAU_MIN:
                break
            step = w - w_prev
            if primal <= reference - SUFFICIENT_DECREASE / (2.0 * tau) * float(step @ step):
                break
            tau = max(0.5 * tau, TAU_MIN)
    return SolveReport(w, len(objective_trace) - 1, time.perf_counter() - start,
                       converged, objective_trace, gap_trace)
