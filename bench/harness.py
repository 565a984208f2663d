"""Runs one workload untraced (end-to-end metrics) or traced (per-layer)."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent


def environment(threads, nproc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "blas_threads": threads,
        "nproc": nproc,
        "openblas": openblas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "l3_cache": l3.read_text().strip() if l3.exists() else "unknown",
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Run:
    """State shared by the passes of one run."""

    def __init__(self, args, workload, workdir):
        self.args = args
        self.w = workload
        self.workdir = workdir
        count = workload.traced_instances if args.trace else workload.instances
        self.seeds = wl.instance_seeds(workload, args.seed)[:count]
        self.incorrect: list[str] = []
        self.passes: list[dict] = []  # seconds, solves, tables, seeds
        self.problems = None
        self.file_sizes: list[int] = []

    def setup(self, reps):
        times = []
        for _ in range(reps):
            self.problems = None  # free the previous rep's instances first
            self.problems, seconds, self.file_sizes = wl.setup_instances(
                self.w, self.seeds, self.workdir, self.incorrect)
            times.append(seconds)
        return times

    def one_pass(self, tracer=None):
        """Run every instance, traced when a tracer is given; then check the
        pass with tracing off."""
        with tracer.installed(wl.MODULES) if tracer else nullcontext():
            seconds, solves, code, tables = wl.run_pass(
                self.w, self.problems, self.seeds, self.workdir, len(self.passes))
        wl.check_pass(self.w, self.problems, self.seeds, solves, code, tables,
                      self.incorrect)
        self.passes.append(dict(seconds=seconds, solves=solves, tables=tables,
                                seeds=self.seeds))
        return seconds

    def compare_passes(self):
        """Counts that differ from the first pass (flagged, not failed), and
        CLI output that differs from it (wrong output)."""
        mismatches = []
        first = self.passes[0]
        counts = {(s.seed, s.solver): s.counts() for s in first["solves"]}
        for k, later in enumerate(self.passes[1:], start=1):
            for s in later["solves"]:
                if counts.get((s.seed, s.solver)) != s.counts():
                    mismatches.append(f"pass {k}, {s.solver} on seed {s.seed}: "
                                      f"{s.counts()} != {counts.get((s.seed, s.solver))}")
            if first["tables"] is None:
                continue
            if wl.without_wall_time(first["tables"][0]) != wl.without_wall_time(
                    later["tables"][0]):
                self.incorrect.append(f"pass {k}: bench rows CSV differs from pass 0 "
                                      f"outside the wall-time column")
            if wl.without_wall_time(first["tables"][1]) != wl.without_wall_time(
                    later["tables"][1]):
                self.incorrect.append(f"pass {k}: bench aggregate CSV differs from "
                                      f"pass 0 outside the wall-time columns")
        return mismatches

    def solve_summary(self):
        per_solver = {}
        for p in self.passes:
            for s in p["solves"]:
                if s.report is not None:
                    per_solver.setdefault(s.solver, []).append(s.seconds)
        return {solver: wl.median_and_tail(t) for solver, t in per_solver.items()}

    def failures(self):
        return [
            f"pass {k}: {s.solver} on seed {s.seed}: " + "; ".join(s.failures)
            for k, p in enumerate(self.passes)
            for s in p["solves"]
            if s.failures
        ]


def run(args, env):
    workload = wl.WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        r = Run(args, workload, workdir)
        record = traced_run(r) if args.trace else untraced_run(r)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["solves"]) for p in r.passes)
    failed = sum(1 for p in r.passes for s in p["solves"] if s.failures)
    record.update(
        workload=workload.name, seed=args.seed, trace=args.trace, env=env,
        instance_seeds=r.seeds, solvers=list(workload.solvers), tol=workload.tol,
        passes=[len(p["seeds"]) for p in r.passes], attempted=attempted, failed=failed,
        failed_frac=failed / max(attempted, 1), failures=r.failures(),
        incorrect=r.incorrect, peak_rss_mb=peak_rss_mb(),
        solves=[[k, s.seed, s.solver, s.seconds, s.counts()]
                for k, p in enumerate(r.passes) for s in p["solves"]],
    )
    final = {
        "correct": not r.incorrect,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in record["final"].items()},
    }
    print_report(record)
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    record["final"] = final
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))
    return record


def untraced_run(r):
    """Set up SETUP_REPS times, then passes while ``--seconds`` allows, at
    least two, so that counts and CLI output can be compared between them."""
    setup_times = r.setup(wl.SETUP_REPS)
    start = perf_counter()
    while True:
        last = r.one_pass()
        if len(r.passes) >= 2 and perf_counter() - start + last > r.args.seconds:
            break
    mismatches = r.compare_passes()
    solves = r.solve_summary()
    pass_seconds = [p["seconds"] for p in r.passes]
    final = {
        "setup_s": (statistics.median(setup_times), "s"),
        "sweep_s": (statistics.median(pass_seconds), "s"),
        "solve_s.dal-chol": (solves["dal-chol"]["median"], "s"),
        "solve_s.dal-cg": (solves["dal-cg"]["median"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "final": final,
        "setup_s_reps": setup_times,
        "sweep_s_passes": pass_seconds,
        "solve_s": solves,
        "count_mismatches": mismatches,
    }


def traced_run(r):
    """One traced set-up, one untraced pass, then two traced passes over the
    first ``traced_instances`` problems."""
    tracer = tracing.Tracer()
    with tracer.installed(wl.MODULES):
        r.setup(1)
    setup_spans = list(range(len(tracer.spans)))
    untraced = r.one_pass()
    pass_spans = []
    for _ in range(2):
        begin = len(tracer.spans)
        r.one_pass(tracer=tracer)
        pass_spans.append(range(begin, len(tracer.spans)))
    mismatches = r.compare_passes()

    per_pass = []
    for p, span_range in zip(r.passes[1:], pass_spans):
        generates = sum(1 for i in span_range if tracer.spans[i][0] == "probgen.generate")
        per_pass.append(tracing.layer_metrics(
            tracer, setup_spans + list(span_range), p["solves"], generates, len(r.seeds)))
    for name in tracing.EXACT_COUNTS:
        values = [m[name][0] for m in per_pass]
        if len(set(values)) > 1:
            mismatches.append(f"{name} differs between traced passes: {values}")
    final = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    final["probgen.file_mb"] = (statistics.mean(r.file_sizes) / 1e6, "MB")
    traced_s = statistics.median(p["seconds"] for p in r.passes[1:])
    final["trace.overhead_s"] = (traced_s - untraced, "s")
    final["trace.count_mismatches"] = (len(mismatches), "count")
    return {
        "final": final,
        "sweep_s_untraced": untraced,
        "sweep_s_traced": [p["seconds"] for p in r.passes[1:]],
        "solve_s": r.solve_summary(),
        "count_mismatches": mismatches,
        "unbound": tracer.unbound,
        "spans": tracer.to_json(),
    }


def print_report(record):
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"instances {record['instance_seeds']}  passes {record['passes']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in record["final"].items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for solver, summary in record.get("solve_s", {}).items():
        tail = "".join(f"  {k} {v:.4g} s" for k, v in summary.items() if k.startswith("p"))
        print(f"  solve_s.{solver:23s} {summary['median']:.6g} s  "
              f"(n={summary['samples']}{tail})")
    print(f"  failed_frac                      {record['failed_frac']:.4g} "
          f"({record['failed']} of {record['attempted']} solves)")
    for line in record["failures"]:
        print(f"  failed: {line}")
    for line in record["count_mismatches"]:
        print(f"  COUNT MISMATCH: {line}")
    for line in record["incorrect"]:
        print(f"  INCORRECT: {line}")
    for name in record.get("unbound", []):
        print(f"  unbound (not traced): {name}")
