"""dalsparse benchmark: time to a certified solution on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced pass.  Lines before it are a readable report.
A full record (environment, seeds, every metric, failure reasons) is written
to ``bench/results/``.  The exit code is non-zero when an output check fails
or the package cannot be imported.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# BLAS threads per workload; set before numpy loads, never above nproc.
BLAS_THREADS = {"normal-tight": 1, "largescale-wide": 2, "poor-cli-sweep": 1}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLAS_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; passes stop once the next would overrun it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(BLAS_THREADS[args.workload], nproc))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dalsparse
    except ImportError as exc:
        print(f"error: cannot import dalsparse from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(dalsparse.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: dalsparse imported from {dalsparse.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    import harness  # imports numpy, so only after the thread count is set

    env = harness.environment(threads, nproc)
    result = harness.run(args, env)
    print(json.dumps(result["final"]))
    return 0 if result["final"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
