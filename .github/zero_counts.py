"""Fail unless each named count on the last line of bench/run.py's output is 0.

    python3 bench/run.py ... | tee bench.out
    python3 .github/zero_counts.py failed trace.count_mismatches < bench.out

The last non-empty line of standard input is bench/run.py's JSON summary.  A
name is one of its keys (``failed``) or one of its ``metrics``, whose
``value`` is read (``trace.count_mismatches``).  Prints each count and exits
1 when a named count is missing or nonzero, or when no name is given.
"""

import json
import sys

names = sys.argv[1:]
if not names:
    sys.exit("usage: zero_counts.py NAME... < bench-output")
lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
summary = json.loads(lines[-1]) if lines else {}
status = 0
for name in names:
    value = summary.get(name, summary.get("metrics", {}).get(name, {}).get("value"))
    print(name, value)
    if value != 0:
        status = 1
sys.exit(status)
