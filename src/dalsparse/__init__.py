"""Sparse reconstruction via a dual augmented Lagrangian method.

Solves minimize 0.5*||A w - b||^2 + lam*||w||_1 with a super-linearly
convergent outer loop around smooth dual subproblems, plus iterative
shrinkage baselines, duality-gap certificates, seeded problem generators,
and a benchmark harness (``dalbench``).
"""

from .baselines import IstConfig, bb_step, estimate_spectral_norm_sq, ist_solve, ist_step
from .certificates import (
    DualCertificate,
    dual_certificate,
    feasible_dual_point,
    relative_duality_gap,
)
from .dal import (
    LineSearchError,
    NumericError,
    SolveReport,
    SolverConfig,
    backtracking_line_search,
    compute_active_set,
    counters,
    inner_gradient,
    inner_objective,
    inner_solve,
    inner_workspace,
    newton_direction_cholesky,
    newton_direction_pcg,
    outer_update,
    solve,
)
from .probgen import (
    DalpFormatError,
    GeneratedProblem,
    GenSpec,
    export_problem_csv,
    gen_gaussian_design,
    gen_sparse_coeffs,
    generate,
    impose_power_law_spectrum,
    load_problem,
    resolve_spec,
    save_problem,
)
from .prox import (
    DualInfeasibleError,
    ProblemInstance,
    dual_objective,
    primal_objective,
    project_linf,
    soft_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "DualCertificate",
    "DualInfeasibleError",
    "DalpFormatError",
    "GenSpec",
    "GeneratedProblem",
    "IstConfig",
    "LineSearchError",
    "NumericError",
    "ProblemInstance",
    "SolveReport",
    "SolverConfig",
    "backtracking_line_search",
    "bb_step",
    "compute_active_set",
    "counters",
    "dual_certificate",
    "dual_objective",
    "estimate_spectral_norm_sq",
    "export_problem_csv",
    "feasible_dual_point",
    "gen_gaussian_design",
    "gen_sparse_coeffs",
    "generate",
    "impose_power_law_spectrum",
    "inner_gradient",
    "inner_objective",
    "inner_solve",
    "inner_workspace",
    "ist_solve",
    "ist_step",
    "load_problem",
    "newton_direction_cholesky",
    "newton_direction_pcg",
    "outer_update",
    "primal_objective",
    "project_linf",
    "relative_duality_gap",
    "resolve_spec",
    "save_problem",
    "soft_threshold",
    "solve",
]
