"""Optimality certificates: a feasible dual point from any primal iterate.

Scaling the negated residual into the dual-feasible slab gives a computable
lower bound on the optimal value at any time; the solver stops when the
relative primal-dual gap it certifies crosses the tolerance.  The bound is
conservative away from the optimum and tight at it.  The DAL solver scales its
own dual multiplier the same way for a cheaper gap, and forms the residual
certificate only once that one meets the tolerance.
"""

import numpy as np

from dalsparse import (
    GenSpec,
    SolverConfig,
    dual_certificate,
    generate,
    solve,
)

p = generate(GenSpec(family="normal", m=64, seed=3)).problem

w_rough = np.zeros(p.n)
cert = dual_certificate(p, w_rough)
print("at w = 0:")
print(f"  primal {cert.primal_value:.6f}  dual bound {cert.dual_value:.6f}  "
      f"relative gap {cert.relative_gap:.3f}")

report = solve(p, SolverConfig(outer_tolerance=1e-8))
cert = dual_certificate(p, report.w_final)
print("at the solver output:")
print(f"  primal {cert.primal_value:.10f}  dual bound {cert.dual_value:.10f}  "
      f"relative gap {cert.relative_gap:.2e}")
print(f"  feasibility ||A^T alpha_hat||_inf / lambda = "
      f"{np.abs(p.design.T @ cert.alpha_hat).max() / p.lam:.12f}")
print()

print("gap per outer iteration (the multiplier's until it meets tol, then the "
      "residual's; not necessarily monotone, final <= tol):")
for k, g in enumerate(report.gap_trace, start=1):
    print(f"  outer {k}: {g:.3e}")
