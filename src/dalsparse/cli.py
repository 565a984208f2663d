"""Benchmark harness: generate problems, run solvers, persist comparable records.

Three subcommands:

* ``gen``   -- write a problem file in the binary container format.
* ``solve`` -- run one solver on a problem file; emit a JSON record on stdout.
* ``bench`` -- generate each (size, seed) instance of a family once, run every
  requested solver on it, and write a per-run CSV at ``--out`` plus a
  per-(solver, size) median CSV at ``<out stem>_agg<ext>`` (``.csv`` if none).

Every run becomes a :class:`BenchRecord` in :func:`_run_and_record`; its
fields are the JSON keys and the CSV columns, and its ``wall_time_s`` is the
time of the whole :func:`run_solver` call.  Only :func:`_run_and_record`
records a numeric error: the solve becomes a non-converged record whose
``error`` holds ``Type: message``; ``bench`` writes it as a row and goes on,
``solve`` prints it and exits 4.

``solve`` and ``bench`` share four solver flags, declared once: ``--tol``
and ``--max-outer`` default to :class:`~dalsparse.dal.SolverConfig`'s
``outer_tolerance`` and ``max_outer``, ``--max-ist-iters`` to
:class:`~dalsparse.baselines.IstConfig`'s ``max_iters``, and ``--eta1`` to
none (DAL then starts at ``16/lam`` for ``dal-chol`` and ``1/lam`` for
``dal-cg``, :data:`~dalsparse.dal._ETA_START`).  ``gen --seed`` and ``--density``
default to :class:`~dalsparse.probgen.GenSpec`'s fields.

Exit codes: 0 success (non-convergence is data, not failure), 2 usage,
3 data/format/IO, 4 internal numeric error.  Each command checks its
arguments, then its output paths, then does its work, so an input bad in both
ways exits 2, and nothing is loaded, generated, solved or written before both
checks pass.  An argument is checked by the code that owns its rule
(``SolverConfig`` and ``IstConfig``, both built only by :func:`_config`,
``GenSpec``, ``resolve_spec``, :func:`~dalsparse.prox._check_cap` for
``--workers``, :func:`_check_huge` for ``--allow-huge``, and the key range
of :mod:`~dalsparse.probgen` for ``--w-init random:SEED``), and its
``ValueError`` becomes argparse's usage error in :func:`main`, the one
usage-error path; an output path that is a directory, or whose directory is
missing, or two outputs that are one file, exit 3 (:func:`_check_outputs`).
``bench`` runs instances on a pool of ``--workers`` threads (at least 1,
default 1), and cancels the queued ones when one raises an error it does not
record, or on Ctrl-C; rows are sorted so output is identical for any worker
count, modulo the wall-time column.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import dal, probgen, prox
from .baselines import IstConfig, ist_solve
from .dal import NumericError, SolveReport, SolverConfig, solve
from .probgen import DalpFormatError, GenSpec

# Each DAL solver id and the SolverConfig.inner_variant it runs.
_DAL_VARIANTS = {"dal-chol": "cholesky", "dal-cg": "pcg"}
# Each IST solver id and the IstConfig.step_rule it runs.
_IST_RULES = {"ist": "constant", "ist-bb": "bb"}
SOLVER_IDS = (*_DAL_VARIANTS, *_IST_RULES)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Default size grids (m for normal/poor, n for largescale).
DEFAULT_SIZES = {
    "normal": (128, 256, 512),
    "poor": (128, 256, 512),
    "largescale": (4096, 16384, 65536),
}
HUGE_ENTRIES = 2**27  # 1 GiB of float64


# What a solve may raise that the harness records instead of aborting on.
_NUMERIC_ERRORS = (NumericError, FloatingPointError)


@dataclass(frozen=True)
class BenchRecord:
    """One solver run in the shape shared by JSON and CSV outputs.

    The outcome fields default to those of a solve that raised: no
    iterations, an infinite gap, not converged.
    """

    solver: str
    family: str | None
    m: int
    n: int
    seed: int | None
    wall_time_s: float
    outer_iters: int = 0
    inner_iters: int = 0
    nnz_fraction: float = 0.0
    final_gap: float = math.inf
    converged: bool = False
    eta_initial: float | None = None
    error: str | None = None


def _initial_w(seed: int | None, n: int) -> np.ndarray | None:
    """A standard normal start drawn from ``seed``'s stream; None (zero) without one."""
    return None if seed is None else probgen._rng(seed).standard_normal(n)


def _resolved_eta(solver: str, problem, eta_initial: float | None) -> float | None:
    """The initial barrier weight a DAL solve starts with; IST has none."""
    if solver not in _DAL_VARIANTS:
        return None
    return dal._starting_eta(problem, eta_initial, _DAL_VARIANTS[solver])


def _config(solver: str, tol: float, eta_initial: float | None, max_outer: int,
            max_ist_iters: int) -> SolverConfig | IstConfig:
    """The config solver id ``solver`` runs with; ``ValueError`` on a bad flag or id."""
    if solver in _DAL_VARIANTS:
        return SolverConfig(eta_initial=eta_initial, outer_tolerance=tol,
                            max_outer=max_outer, inner_variant=_DAL_VARIANTS[solver])
    if solver in _IST_RULES:
        return IstConfig(step_rule=_IST_RULES[solver], tolerance=tol,
                         max_iters=max_ist_iters)
    raise ValueError(f"unknown solver {solver!r}; choose from {SOLVER_IDS}")


def run_solver(
    solver: str,
    problem,
    tol: float,
    eta_initial: float | None = None,
    max_outer: int = SolverConfig.max_outer,
    max_ist_iters: int = IstConfig.max_iters,
    w_initial: np.ndarray | None = None,
) -> tuple[SolveReport, float | None]:
    """Dispatch one of the four solver ids; returns (report, eta actually used)."""
    config = _config(solver, tol, eta_initial, max_outer, max_ist_iters)
    run = solve if solver in _DAL_VARIANTS else ist_solve
    return run(problem, config, w_initial), _resolved_eta(solver, problem, eta_initial)


def _run_and_record(
    solver: str,
    problem,
    w_initial: np.ndarray | None,
    args,
    family: str | None = None,
    seed: int | None = None,
) -> BenchRecord:
    """Run ``solver`` through :func:`run_solver` with the command's flags.

    ``wall_time_s`` is the time of the whole :func:`run_solver` call, set-up
    included, or the time until it raised.  A numeric error becomes the
    failed record, with ``Type: message`` in ``error``.
    """
    start = time.perf_counter()
    try:
        report, eta = run_solver(
            solver,
            problem,
            tol=args.tol,
            eta_initial=args.eta1,
            max_outer=args.max_outer,
            max_ist_iters=args.max_ist_iters,
            w_initial=w_initial,
        )
        outcome = dict(
            outer_iters=report.outer_iters,
            inner_iters=report.inner_newton_iters,
            nnz_fraction=report.nnz_fraction,
            final_gap=report.relative_gap,
            converged=report.converged,
            eta_initial=eta,
        )
    except _NUMERIC_ERRORS as exc:
        outcome = dict(error=f"{type(exc).__name__}: {exc}",
                       eta_initial=_resolved_eta(solver, problem, args.eta1))
    return BenchRecord(solver=solver, family=family, m=problem.m, n=problem.n,
                       seed=seed, wall_time_s=time.perf_counter() - start, **outcome)


def _parse_ints(text: str) -> list[int]:
    """A comma list (``3,5,9``) or an inclusive range (``1..10``)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dalbench",
        description="Sparse-reconstruction solver benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The solver flags of ``solve`` and ``bench``, declared once.
    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--tol", type=float, default=SolverConfig.outer_tolerance)
    solver_flags.add_argument(
        "--eta1", type=float, default=None,
        help="DAL's starting barrier weight eta (default: 16/lambda for dal-chol, "
             "1/lambda for dal-cg; capped at 1e12)")
    solver_flags.add_argument("--max-outer", type=int, default=SolverConfig.max_outer)
    solver_flags.add_argument("--max-ist-iters", type=int, default=IstConfig.max_iters)

    huge_flag = argparse.ArgumentParser(add_help=False)
    huge_flag.add_argument("--allow-huge", action="store_true",
                           help="permit a design of more than 2^27 entries (m*n; 1 GiB)")
    gen = sub.add_parser("gen", parents=[huge_flag], help="generate a problem file")
    gen.add_argument("--family", required=True, choices=probgen.FAMILIES)
    gen.add_argument("--m", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int, default=GenSpec.seed)
    gen.add_argument("--density", type=float, default=GenSpec.density)
    gen.add_argument("--noise-variance", type=float, default=None)
    gen.add_argument("--lam", type=float, default=None,
                     help="fixed regularization weight (overrides the family rule)")
    gen.add_argument("--out", default=None, help="output path (.dalp)")
    gen.add_argument("--csv", default=None,
                     help="also export a CSV copy (small instances only)")

    slv = sub.add_parser("solve", parents=[solver_flags], help="solve a problem file")
    slv.add_argument("problem", help="path to a .dalp problem file")
    slv.add_argument("--solver", required=True, choices=SOLVER_IDS)
    slv.add_argument("--w-init", default="zero", help="zero | random:SEED")

    bench = sub.add_parser(
        "bench",
        parents=[solver_flags, huge_flag],
        help="run solvers on every size/seed instance",
        description="Generate each (size, seed) instance once and run every "
                    "requested solver on it.  Writes one CSV row per solve; a "
                    "solve that raised has converged=false, final_gap=inf and "
                    "its reason ('Type: message') in the error column.",
    )
    bench.add_argument("--family", required=True, choices=probgen.FAMILIES)
    bench.add_argument("--sizes", default=None,
                       help="e.g. 128,256 or 128..130; m for normal/poor, "
                            "n for largescale")
    bench.add_argument("--seeds", default="1..10", help="e.g. 1..10 or 3,5,9")
    bench.add_argument("--solvers", default=",".join(SOLVER_IDS))
    bench.add_argument("--w-init", default="zero", choices=("zero", "random"),
                       help="zero | random (seed-derived)")
    bench.add_argument("--out", required=True, help="per-run CSV path; medians "
                       "go to <out stem>_agg<ext> (.csv if no extension)")
    bench.add_argument("--workers", type=int, default=1,
                       help="instances run in parallel, at least 1, default 1")
    return parser


def _check_outputs(*paths: str | None) -> None:
    """Raise an ``OSError`` (exit 3) if an output path (``None``: not asked
    for) is empty, is a directory or its directory is missing, or if two
    outputs are one file."""
    paths = [path for path in paths if path is not None]
    for path in paths:
        if path == "":
            raise FileNotFoundError(errno.ENOENT, "empty output path", path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"no directory for output {path!r}")
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise OSError(f"outputs {paths} name one file")


def _check_huge(specs: list[GenSpec], allow_huge: bool) -> None:
    """``ValueError`` for a design above :data:`HUGE_ENTRIES` entries unless ``allow_huge``."""
    over = sorted({(s.m, s.n) for s in specs if s.m * s.n > HUGE_ENTRIES})
    if over and not allow_huge:
        raise ValueError(f"designs (m, n) {over} exceed 2^27 entries (1 GiB); "
                         f"pass --allow-huge to proceed")


def _cmd_gen(args) -> int:
    spec = probgen.resolve_spec(GenSpec(
        family=args.family, m=args.m, n=args.n, density=args.density,
        noise_variance=args.noise_variance, lam=args.lam, seed=args.seed))
    _check_huge([spec], args.allow_huge)
    out = args.out
    if out is None:
        out = f"{spec.family}_m{spec.m}_n{spec.n}_seed{spec.seed}.dalp"
    _check_outputs(out, args.csv)
    generated = probgen.generate(spec)
    p = generated.problem
    probgen.save_problem(out, generated)
    if args.csv is not None:
        probgen.export_problem_csv(args.csv, generated)
    nnz = int(np.count_nonzero(generated.true_coeffs))
    print(out)
    print(f"m={p.m} n={p.n} lambda={p.lam:g} nnz(w0)={nnz}", file=sys.stderr)
    return EXIT_OK


def _check_solver_flags(args, solvers: list[str]) -> None:
    """Build the config each of ``solvers`` runs with, so a bad flag raises now."""
    for solver in solvers:
        _config(solver, args.tol, args.eta1, args.max_outer, args.max_ist_iters)


def _cmd_solve(args) -> int:
    _check_solver_flags(args, [args.solver])
    kind, _, seed = args.w_init.partition(":")
    usage = f"w-init must be 'zero' or 'random:SEED', got {args.w_init!r}"
    if args.w_init != "zero" and kind != "random":
        raise ValueError(usage)
    try:
        w_seed = int(seed) if kind == "random" else None
    except ValueError:
        raise ValueError(usage) from None
    w_seed = None if w_seed is None else probgen._check_key(w_seed)
    p = probgen.load_problem(args.problem).problem
    record = _run_and_record(args.solver, p, _initial_w(w_seed, p.n), args)
    # RFC 8259 JSON has no inf or nan: a failed solve's gap is written null.
    values = {k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in asdict(record).items()}
    print(json.dumps(values, allow_nan=False))
    if record.error is not None:
        print(f"numeric error: {record.error}", file=sys.stderr)
        return EXIT_NUMERIC
    status = "converged" if record.converged else "NOT converged"
    print(
        f"{args.solver} on {args.problem}: {status}, gap={record.final_gap:.3e}, "
        f"iters={record.outer_iters}, nnz={record.nnz_fraction:.4f}, "
        f"time={record.wall_time_s:.3f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _bench_instance(spec: GenSpec, solvers, args) -> list[BenchRecord]:
    """Generate one instance and run every solver on it, in order."""
    p = probgen.generate(spec).problem
    # A random initial vector's stream is derived from the problem seed.
    w0 = _initial_w(spec.seed + 0x5EED if args.w_init == "random" else None, p.n)
    return [_run_and_record(solver, p, w0, args, spec.family, spec.seed)
            for solver in solvers]


_MEDIAN_FIELDS = ["wall_time_s", "outer_iters", "inner_iters", "nnz_fraction",
                  "final_gap"]
_AGGREGATE_FIELDS = ["solver", "family", "m", "n", "runs", "converged_runs"] + [
    f"median_{f}" for f in _MEDIAN_FIELDS
]


def _write_csv(path, header: list[str], rows: list[dict]) -> None:
    """Write ``rows`` (dicts keyed by ``header``) under ``header``, booleans
    as ``true``/``false``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            values = [row[f] for f in header]
            writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in values])


def aggregate_records(records: list[BenchRecord]) -> list[dict]:
    """Per-(solver, family, m, n) medians and convergence counts, in record order."""
    groups: dict[tuple, list[BenchRecord]] = {}
    for rec in records:
        groups.setdefault((rec.solver, rec.family, rec.m, rec.n), []).append(rec)
    rows = []
    for key, members in groups.items():
        row = {
            "solver": key[0],
            "family": key[1],
            "m": key[2],
            "n": key[3],
            "runs": len(members),
            "converged_runs": sum(1 for r in members if r.converged),
        }
        for fname in _MEDIAN_FIELDS:
            row[f"median_{fname}"] = statistics.median(
                getattr(r, fname) for r in members
            )
        rows.append(row)
    return rows


def _cmd_bench(args) -> int:
    sizes = (list(DEFAULT_SIZES[args.family]) if args.sizes is None
             else _parse_ints(args.sizes))
    seeds = _parse_ints(args.seeds)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not (sizes and seeds and solvers):
        raise ValueError("--sizes, --seeds and --solvers must not be empty")
    _check_solver_flags(args, solvers)
    size_field = "n" if args.family == "largescale" else "m"
    specs = [probgen.resolve_spec(GenSpec(family=args.family, seed=seed,
                                          **{size_field: size}))
             for size in sizes for seed in seeds]
    _check_huge(specs, args.allow_huge)
    prox._check_cap("--workers", args.workers)
    root, ext = os.path.splitext(args.out)
    agg_path = f"{root}_agg{ext or '.csv'}"
    _check_outputs(args.out, agg_path)

    pool = ThreadPoolExecutor(max_workers=args.workers)
    try:
        runs = [pool.submit(_bench_instance, spec, solvers, args) for spec in specs]
        records = [rec for run in runs for rec in run.result()]
    finally:
        # On an error, cancel the queued instances instead of running them.
        pool.shutdown(cancel_futures=True)
    records.sort(key=lambda r: (r.solver, r.m, r.n, r.seed))
    _write_csv(args.out, [f.name for f in fields(BenchRecord)],
               [asdict(r) for r in records])
    _write_csv(agg_path, _AGGREGATE_FIELDS, aggregate_records(records))
    print(args.out)
    print(agg_path)
    done = sum(1 for r in records if r.converged)
    print(f"{len(records)} runs, {done} converged", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"gen": _cmd_gen, "solve": _cmd_solve, "bench": _cmd_bench}[args.command]
    try:
        return command(args)
    except (DalpFormatError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
