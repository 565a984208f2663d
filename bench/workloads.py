"""The three benchmark workloads, their set-up, passes and output checks.

Each workload runs passes over the same instances.  A pass calls
``cli.run_solver`` once per (instance, solver), either directly or through
``cli.main(["bench", ...])``; a thin wrapper on that binding times each call
and keeps its report so every solve can be checked from outside.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import statistics
import zlib
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from dalsparse import baselines, certificates, cli, dal, probgen, prox
from dalsparse.dal import LineSearchError, NumericError
from dalsparse.probgen import GenSpec


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    size: int  # m for normal/poor, n for largescale
    solvers: tuple[str, ...]
    tol: float
    instances: int  # problems per pass, seeded from the run's --seed
    traced_instances: int  # problems of a traced run
    via_cli_bench: bool = False


# Why each workload exists is recorded in bench/README.md.  BLAS threads per
# workload are set in run.py, before numpy loads.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("normal-tight", "normal", 512, ("dal-chol", "dal-cg", "ist-bb", "ist"),
                 1e-6, instances=8, traced_instances=4),
        Workload("largescale-wide", "largescale", 65536, ("dal-cg", "dal-chol"),
                 1e-3, instances=1, traced_instances=1),
        Workload("poor-cli-sweep", "poor", 256, ("dal-chol", "dal-cg", "ist-bb"),
                 1e-3, instances=24, traced_instances=8, via_cli_bench=True),
    )
}

SETUP_REPS = 3

# Iteration budget handed to `dalbench bench` for ist-bb on poor-cli-sweep;
# a solve that needs more counts as failed.  Converging solves there take
# 700 to 2200 iterations; the CLI default of 50000 costs about 20 s for each
# solve that never converges, more than a run can spend.
POOR_MAX_IST_ITERS = 3000

MODULES = {"cli": cli, "probgen": probgen, "dal": dal, "baselines": baselines,
           "certificates": certificates, "prox": prox}


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """Problem seeds of one run: a block of consecutive seeds chosen by --seed."""
    return [(seed * workload.instances + i) % 2**63 for i in range(workload.instances)]


def gen_spec(workload: Workload, seed: int) -> GenSpec:
    if workload.family == "largescale":
        return GenSpec(family="largescale", n=workload.size, seed=seed)
    return GenSpec(family=workload.family, m=workload.size, seed=seed)


# ---------------------------------------------------------------- set-up


def setup_instances(workload, seeds, workdir, incorrect):
    """Generate each instance, write it to a .dalp container and read it back,
    as ``dalbench gen`` followed by ``dalbench solve`` does.

    Returns the loaded problems, the seconds spent in generate/save/load, and
    the container sizes in bytes.  The generated problem is freed before the
    load, as it would be between the two commands; a digest taken outside the
    timed calls checks that the round trip kept every bit.
    """
    problems, seconds, sizes = [], 0.0, []
    for seed in seeds:
        path = workdir / f"{workload.family}-{seed}.dalp"
        start = perf_counter()
        generated = probgen.generate(gen_spec(workload, seed))
        seconds += perf_counter() - start
        expected = digest(generated.problem)
        start = perf_counter()
        probgen.save_problem(path, generated)
        del generated
        loaded = probgen.load_problem(path)
        seconds += perf_counter() - start
        sizes.append(path.stat().st_size)
        path.unlink()
        if digest(loaded.problem) != expected:
            incorrect.append(f"seed {seed}: container round trip changed the problem")
        problems.append(loaded.problem)
    return problems, seconds, sizes


def digest(problem) -> int:
    """CRC-32 of lambda, observations and design bytes (0.2 s per 512 MiB)."""
    crc = zlib.crc32(np.float64(problem.lam).tobytes())
    crc = zlib.crc32(np.ascontiguousarray(problem.observations), crc)
    design = problem.design
    return zlib.crc32(design.T if design.flags.f_contiguous
                      else np.ascontiguousarray(design), crc)


# ---------------------------------------------------------------- passes


@dataclass
class Solve:
    """One captured ``run_solver`` call."""

    solver: str
    source: tuple  # ("ref", index) of the problem passed, or ("crc", digest)
    seconds: float
    seed: int | None = None  # set when the pass is checked
    report: object = None
    error: str | None = None
    active_touches: int = 0
    failures: list[str] = field(default_factory=list)

    def counts(self):
        r = self.report
        if r is None:
            return (self.solver, self.error)
        return (self.solver, r.outer_iters, r.inner_newton_iters, r.pcg_iters_total,
                r.inner_cap_hits, self.active_touches, r.converged)


@contextmanager
def captured_solves(references):
    """Rebind ``cli.run_solver`` to a wrapper that records every call.

    A problem that is not one of ``references`` (the CLI generates its own)
    is kept only as a digest, so the capture holds no extra problem memory.
    Exceptions are recorded with a reason and re-raised, so the CLI's own
    handling (an ``inf`` row) is unchanged.
    """
    inner = cli.run_solver
    calls: list[Solve] = []
    ids = {id(p): i for i, p in enumerate(references)}

    def source(problem):
        i = ids.get(id(problem))
        return ("ref", i) if i is not None else ("crc", digest(problem))

    def run_solver(solver, problem, *args, **kwargs):
        dal.counters.reset()
        start = perf_counter()
        try:
            report, eta = inner(solver, problem, *args, **kwargs)
        except (NumericError, LineSearchError, FloatingPointError) as exc:
            calls.append(Solve(solver, source(problem), perf_counter() - start,
                               error=f"{type(exc).__name__}: {exc}"))
            raise
        seconds = perf_counter() - start
        calls.append(Solve(solver, source(problem), seconds, report=report,
                           active_touches=dal.counters.active_column_accesses))
        return report, eta

    cli.run_solver = run_solver
    try:
        yield calls
    finally:
        cli.run_solver = inner


def run_pass(workload, problems, seeds, workdir, pass_no):
    """One pass over every (instance, solver); returns seconds, solves, csv."""
    with captured_solves(problems) as calls:
        if workload.via_cli_bench:
            out = workdir / f"rows-{pass_no}.csv"
            argv = ["bench", "--family", workload.family, "--sizes", str(workload.size),
                    "--seeds", ",".join(map(str, seeds)),
                    "--solvers", ",".join(workload.solvers), "--tol", repr(workload.tol),
                    "--w-init", "random", "--workers", "1",
                    "--max-ist-iters", str(POOR_MAX_IST_ITERS), "--out", str(out)]
            start = perf_counter()
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            seconds = perf_counter() - start
            tables = [read_csv(out), read_csv(workdir / f"rows-{pass_no}_agg.csv")]
            out.unlink()
            (workdir / f"rows-{pass_no}_agg.csv").unlink()
        else:
            code, tables = 0, None
            start = perf_counter()
            for problem in problems:
                for solver in workload.solvers:
                    try:
                        cli.run_solver(solver, problem, workload.tol)
                    except (NumericError, LineSearchError, FloatingPointError):
                        pass  # the wrapper kept the reason
            seconds = perf_counter() - start
    return seconds, list(calls), code, tables


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- checks


def check_pass(workload, problems, seeds, solves, code, tables, incorrect):
    """Mark failed solves (each with its reasons) and record wrong outputs.

    A solve fails when it raised, did not converge, reports an infinite gap,
    has a gap above tol when recomputed from its returned ``w``, or has a
    primal value that differs from another solver's on the same instance by
    more than tol times the larger value.  The last two, and any mismatch
    between the CLI's output and what the solvers returned, also mean the
    program's output is wrong and go to ``incorrect``.
    """
    tol = workload.tol
    cells = [(i, s) for i in range(len(problems)) for s in workload.solvers]
    if code != 0:
        incorrect.append(f"dalbench bench exited with code {code}")
    if len(solves) != len(cells):
        incorrect.append(f"{len(solves)} solves for {len(cells)} cells")
        return
    by_instance: dict[int, list[Solve]] = {}
    for (i, solver), solve in zip(cells, solves):
        where = f"{solver} on seed {seeds[i]}"
        ref = problems[i]
        solve.seed = seeds[i]
        if solve.solver != solver:
            incorrect.append(f"{where}: cell ran {solve.solver}")
            continue
        if solve.source not in (("ref", i), ("crc", digest(ref))):
            incorrect.append(f"{where}: solved a different problem than the reference")
        r = solve.report
        if r is None:
            solve.failures.append(f"raised {solve.error}")
            continue
        if not r.converged:
            solve.failures.append(
                f"not converged: gap {r.relative_gap:.3e} after {r.outer_iters} iterations")
        if not math.isfinite(r.relative_gap):
            solve.failures.append("infinite gap")
        gap = certificates.relative_duality_gap(ref, r.w_final)
        if gap > tol:
            solve.failures.append(f"recomputed gap {gap:.3e} > tol {tol:g}")
            if r.converged:
                incorrect.append(f"{where}: reports convergence but its gap is {gap:.3e}")
        if not solve.failures:
            by_instance.setdefault(i, []).append(solve)
    for i, group in by_instance.items():
        for a, b in itertools.combinations(group, 2):
            pa, pb = a.report.primal_value, b.report.primal_value
            if abs(pa - pb) > tol * max(pa, pb):
                a.failures.append(f"primal {pa:.9e} differs from {b.solver}'s {pb:.9e}")
                b.failures.append(f"primal {pb:.9e} differs from {a.solver}'s {pa:.9e}")
                incorrect.append(f"{a.solver} and {b.solver} on seed {seeds[i]} disagree: "
                                 f"{pa:.9e} vs {pb:.9e}")
    if tables is not None:
        check_cli_rows(seeds, cells, solves, tables[0], incorrect)


def check_cli_rows(seeds, cells, solves, rows, incorrect):
    """Every CSV row must carry what its solver returned; a raised solve must
    appear as the CLI's ``inf`` row (its reason is kept by the benchmark)."""
    header, body = rows[0], rows[1:]
    if len(body) != len(cells):
        incorrect.append(f"CSV has {len(body)} rows for {len(cells)} cells")
        return
    col = {name: k for k, name in enumerate(header)}
    by_key = {(row[col["solver"]], int(row[col["seed"]])): row for row in body}
    for (i, solver), solve in zip(cells, solves):
        row = by_key.get((solver, seeds[i]))
        if row is None:
            incorrect.append(f"CSV lacks {solver} on seed {seeds[i]}")
            continue
        r = solve.report
        expect = (
            {"final_gap": "inf", "converged": "false"} if r is None else
            {"final_gap": repr(r.relative_gap), "outer_iters": str(r.outer_iters),
             "inner_iters": str(r.inner_newton_iters),
             "converged": "true" if r.converged else "false"}
        )
        for name, value in expect.items():
            if row[col[name]] != value:
                incorrect.append(f"CSV {name} of {solver} on seed {seeds[i]} is "
                                 f"{row[col[name]]}, solver returned {value}")


def without_wall_time(table):
    """CSV cells except the wall-time columns, for comparing passes."""
    drop = {k for k, name in enumerate(table[0]) if "wall_time" in name}
    return [[v for k, v in enumerate(row) if k not in drop] for row in table]


# ---------------------------------------------------------------- summaries


def median_and_tail(samples):
    """Median, sample count, and the highest of p75/p90/p95/p99 that still
    has at least ten samples beyond it (left out when there are too few)."""
    out = {"median": statistics.median(samples), "samples": len(samples)}
    ordered = sorted(samples)
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ordered[math.ceil(p / 100 * len(samples)) - 1]
            break
    return out
