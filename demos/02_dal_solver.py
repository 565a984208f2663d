"""The main solver: a handful of outer iterations, each a smooth Newton solve.

Every outer step minimizes a differentiable dual objective until its gradient
is small next to the primal step it would make (or below a shrinking floor),
then refreshes the primal vector by one soft-thresholding, so each iterate is
exactly sparse.  The barrier weight doubles per step, which is what
buys the short outer loop.
"""

import numpy as np

from dalsparse import GenSpec, SolverConfig, generate, solve

gen = generate(GenSpec(family="normal", m=128, seed=7))
p = gen.problem
print(f"instance: m={p.m}, n={p.n}, lambda={p.lam}, "
      f"true nonzeros={np.count_nonzero(gen.true_coeffs)}")
print()

solve(p, SolverConfig())  # warm up the linear algebra backend before timing

for variant in ("cholesky", "pcg"):
    report = solve(p, SolverConfig(outer_tolerance=1e-6, inner_variant=variant))
    print(f"[{variant:8s}] outer={report.outer_iters}  "
          f"newton={report.inner_newton_iters}  cg={report.pcg_iters_total}  "
          f"gap={report.relative_gap:.2e}  nnz={report.nnz_fraction:.3f}  "
          f"time={report.wall_time_seconds * 1e3:.0f}ms")
print()

report = solve(p, SolverConfig(outer_tolerance=1e-6))
print("objective trace (monotone):")
for k, (f, g) in enumerate(zip(report.objective_trace, report.gap_trace), start=1):
    print(f"  outer {k}: f = {f:.10f}   gap = {g:.2e}")
print()

# The initial barrier weight is the one knob worth tuning per problem family;
# the default is 16/lambda for the Cholesky variant and 1/lambda for PCG.
# Larger values shrink the gap faster per outer step but make the inner
# problems stiffer.
print("eta_initial sweep (outer iterations to gap 1e-6):")
for eta1 in (4.0, 40.0, 400.0, 4000.0):
    rep = solve(p, SolverConfig(outer_tolerance=1e-6, eta_initial=eta1))
    print(f"  eta1 = {eta1:6g}: outer={rep.outer_iters}  "
          f"newton={rep.inner_newton_iters}")
