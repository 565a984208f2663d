"""Shrinkage baselines vs the dual method when conditioning degrades.

First-order shrinkage pays for a bad spectrum: replacing the design's
singular values by 1/s multiplies its iteration count by an order of
magnitude, while the dual Newton loop barely notices.  This is the core
trade the benchmark families are built to expose.
"""

import numpy as np

from dalsparse import (
    GenSpec,
    IstConfig,
    SolverConfig,
    generate,
    ist_solve,
    solve,
)

for family in ("normal", "poor"):
    print(f"--- family: {family} (m=128, five seeds) ---")
    rows = []
    for seed in range(1, 6):
        p = generate(GenSpec(family=family, m=128, seed=seed)).problem
        ist = ist_solve(p, IstConfig(step_rule="constant", tolerance=1e-3,
                                     max_iters=200000))
        bb = ist_solve(p, IstConfig(step_rule="bb", tolerance=1e-3,
                                    max_iters=200000))
        dal = solve(p, SolverConfig(outer_tolerance=1e-3, inner_variant="pcg"))
        rows.append((ist.outer_iters, bb.outer_iters, dal.outer_iters))
    med = np.median(np.array(rows), axis=0)
    print(f"  median iterations: ist={med[0]:.0f}  ist-bb={med[1]:.0f}  "
          f"dal-cg={med[2]:.0f}")
    print()
