"""Spans around dalsparse's public calls, installed from outside the package.

The program calls its layers through module-level names (``cli`` calls
``solve`` and ``probgen.generate``, ``dal`` calls ``inner_workspace`` and
``relative_duality_gap``, and so on), so rebinding those names to timing
wrappers traces every call without touching a source file.  Wrappers pass
arguments and results through unchanged.

While tracing, ``cli.run_solver`` also swaps the problem's design matrix for
a :class:`CountingDesign` view of the same memory, which times each matrix
product and credits it to the innermost open span.  Products on copies made
with ``np.asarray`` (the power iteration in ``estimate_spectral_norm_sq``)
are not seen; their time shows in the spectral-norm span instead.
"""

from __future__ import annotations

import copy
import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, module, attribute): every module-level binding a traced call
# goes through.  A function bound in two modules is wrapped in both.
BINDINGS = (
    ("cli.run_solver", "cli", "run_solver"),
    ("dal.solve", "cli", "solve"),
    ("dal.inner_solve", "dal", "inner_solve"),
    ("dal.inner_workspace", "dal", "inner_workspace"),
    ("dal.outer_update", "dal", "outer_update"),
    ("dal.cho_factor", "dal", "cho_factor"),
    ("dal.cho_solve", "dal", "cho_solve"),
    ("baselines.ist_solve", "cli", "ist_solve"),
    ("baselines.estimate_spectral_norm_sq", "cli", "estimate_spectral_norm_sq"),
    ("baselines.estimate_spectral_norm_sq", "baselines", "estimate_spectral_norm_sq"),
    ("certificates.relative_duality_gap", "dal", "relative_duality_gap"),
    ("certificates.relative_duality_gap", "baselines", "relative_duality_gap"),
    ("prox.dual_objective", "certificates", "dual_objective"),
    ("prox.soft_threshold", "dal", "soft_threshold"),
    ("prox.soft_threshold", "baselines", "soft_threshold"),
    ("probgen.generate", "probgen", "generate"),
    ("probgen.impose_power_law_spectrum", "probgen", "impose_power_law_spectrum"),
    ("probgen.save_problem", "probgen", "save_problem"),
    ("probgen.load_problem", "probgen", "load_problem"),
)

class Tracer:
    """Spans kept in memory as ``[name, start, end, parent]`` lists.

    ``products[i][kind]`` holds ``[count, seconds, bytes]`` of the design
    products made while span ``i`` was the innermost open span (``-1`` when
    none was open).  ``masked`` holds the indices of ``inner_workspace``
    spans whose workspace kept no gathered columns.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.products: dict[int, dict[str, list]] = {}
        self.masked: set[int] = set()
        self.unbound: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(index, result)
            return result

        return traced

    def product(self, kind, seconds, nbytes):
        index = self._stack[-1] if self._stack else -1
        totals = self.products.setdefault(index, {}).setdefault(kind, [0, 0.0, 0])
        totals[0] += 1
        totals[1] += seconds
        totals[2] += nbytes

    def _counting_problem(self, args):
        problem = args[1]
        counted = copy.copy(problem)
        design = problem.design.view(CountingDesign)
        design._tracer = self
        design._full_size = problem.design.size
        object.__setattr__(counted, "design", design)
        return (args[0], counted) + tuple(args[2:])

    def _note_workspace(self, index, ws):
        if ws.active_cols is None:
            self.masked.add(index)

    @contextmanager
    def installed(self, modules):
        """Rebind every name in :data:`BINDINGS`; restore them on exit."""
        hooks = {
            "cli.run_solver": dict(before=self._counting_problem),
            "dal.inner_workspace": dict(after=self._note_workspace),
        }
        saved = []
        for name, module_name, attr in BINDINGS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.unbound.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, **hooks.get(name, {})))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def to_json(self):
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "products": {str(i): kinds for i, kinds in self.products.items()},
        }


class CountingDesign(np.ndarray):
    """A view of a design matrix that times its own matrix products.

    A product with the whole matrix (or its transpose) is ``full``; one with
    gathered columns is ``gathered``; one of gathered columns with their own
    transpose is ``gram`` (the Hessian assembly).  Bytes are computed as 8
    per element of the design operand, not measured.
    """

    _tracer = None
    _full_size = 0

    def __array_finalize__(self, obj):
        self._tracer = getattr(obj, "_tracer", None)
        self._full_size = getattr(obj, "_full_size", 0)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(
            x.view(np.ndarray) if isinstance(x, CountingDesign) else x for x in inputs
        )
        if "out" in kwargs:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, CountingDesign) else x
                for x in kwargs["out"]
            )
        if ufunc is not np.matmul or method != "__call__":
            return getattr(ufunc, method)(*plain, **kwargs)
        start = perf_counter()
        result = ufunc(*plain, **kwargs)
        seconds = perf_counter() - start
        designs = [x for x in inputs if isinstance(x, CountingDesign)]
        if len(designs) == 2:
            kind = "gram"
        elif designs[0].size == designs[0]._full_size:
            kind = "full"
        else:
            kind = "gathered"
        if designs[0]._tracer is not None:
            designs[0]._tracer.product(kind, seconds, 8 * designs[0].size)
        return result


def _module(name):
    return name.split(".", 1)[0]


def layer_metrics(tracer, indices, solves, generate_spans_in_pass, n_instances):
    """Per-layer metrics over the spans whose indices are in ``indices``.

    ``solves`` are the captured ``run_solver`` calls of the same pass; their
    reports give the iteration counts.  Times are inclusive span seconds
    unless named ``self``.
    """
    spans = tracer.spans
    picked = set(indices)
    count: dict[str, int] = {}
    seconds: dict[str, float] = {}
    children: dict[int, list[int]] = {}
    for i in indices:
        name, start, end, parent = spans[i]
        count[name] = count.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        if parent in picked:
            children.setdefault(parent, []).append(i)

    def child_seconds(i, names):
        return sum(
            spans[c][2] - spans[c][1] for c in children.get(i, ()) if spans[c][0] in names
        )

    run_solver_self = sum(
        spans[i][2] - spans[i][1] - child_seconds(i, ("dal.solve", "baselines.ist_solve"))
        for i in indices
        if spans[i][0] == "cli.run_solver"
    )
    ist_loop_s = sum(
        spans[i][2] - spans[i][1]
        - child_seconds(i, ("baselines.estimate_spectral_norm_sq",))
        for i in indices
        if spans[i][0] == "baselines.ist_solve"
    )

    # Products: credited to the innermost span, and counted once for every
    # module with a span open around them.
    by_module: dict[tuple[str, str], list] = {}
    for i in indices:
        kinds = tracer.products.get(i)
        if not kinds:
            continue
        modules = set()
        j = i
        while j != -1:
            modules.add(_module(spans[j][0]))
            j = spans[j][3]
        for module in modules:
            for kind, (n, s, b) in kinds.items():
                acc = by_module.setdefault((module, kind), [0, 0.0, 0])
                acc[0] += n
                acc[1] += s
                acc[2] += b

    def prod(module, kind, field):
        return by_module.get((module, kind), [0, 0.0, 0])[field]

    dal_solves = [s for s in solves if s.solver.startswith("dal-") and s.report]
    ist_solves = [s for s in solves if s.solver.startswith("ist") and s.report]
    ist_iters = sum(s.report.outer_iters for s in ist_solves)
    full_gb = prod("dal", "full", 2) / 1e9
    full_s = prod("dal", "full", 1)
    return {
        "cli.run_solver_self_s": (run_solver_self, "s"),
        "cli.generate_per_problem": (generate_spans_in_pass / n_instances, "count"),
        "probgen.generate_s": (seconds.get("probgen.generate", 0.0), "s"),
        "probgen.spectrum_s": (seconds.get("probgen.impose_power_law_spectrum", 0.0), "s"),
        "probgen.save_s": (seconds.get("probgen.save_problem", 0.0), "s"),
        "probgen.load_s": (seconds.get("probgen.load_problem", 0.0), "s"),
        "dal.outer_iters": (sum(s.report.outer_iters for s in dal_solves), "count"),
        "dal.newton_steps": (sum(s.report.inner_newton_iters for s in dal_solves), "count"),
        "dal.cg_iters": (sum(s.report.pcg_iters_total for s in dal_solves), "count"),
        "dal.inner_solves": (count.get("dal.inner_solve", 0), "count"),
        "dal.cap_hits": (sum(s.report.inner_cap_hits for s in dal_solves), "count"),
        "dal.active_touches": (sum(s.active_touches for s in dal_solves), "count"),
        "dal.workspaces": (count.get("dal.inner_workspace", 0), "count"),
        "dal.masked_workspaces": (len(tracer.masked & picked), "count"),
        "dal.inner_solve_s": (seconds.get("dal.inner_solve", 0.0), "s"),
        "dal.workspace_s": (seconds.get("dal.inner_workspace", 0.0), "s"),
        "dal.outer_update_s": (seconds.get("dal.outer_update", 0.0), "s"),
        "dal.cholesky_calls": (count.get("dal.cho_factor", 0), "count"),
        "dal.cholesky_s": (
            seconds.get("dal.cho_factor", 0.0) + seconds.get("dal.cho_solve", 0.0), "s"
        ),
        "dal.full_products": (prod("dal", "full", 0), "count"),
        "dal.full_product_s": (full_s, "s"),
        "dal.full_product_gb": (full_gb, "GB"),
        "dal.full_product_gbps": (full_gb / full_s if full_s > 0 else 0.0, "GB/s"),
        "dal.gathered_product_s": (prod("dal", "gathered", 1), "s"),
        "dal.gram_s": (prod("dal", "gram", 1), "s"),
        "baselines.ist_iters": (ist_iters, "count"),
        "baselines.iter_s": (ist_loop_s / ist_iters if ist_iters else 0.0, "s"),
        "baselines.spectral_norm_calls": (
            count.get("baselines.estimate_spectral_norm_sq", 0), "count"
        ),
        "baselines.spectral_norm_s": (
            seconds.get("baselines.estimate_spectral_norm_sq", 0.0), "s"
        ),
        "baselines.full_products": (prod("baselines", "full", 0), "count"),
        "certificates.gap_calls": (count.get("certificates.relative_duality_gap", 0), "count"),
        "certificates.gap_s": (seconds.get("certificates.relative_duality_gap", 0.0), "s"),
        "certificates.full_products": (prod("certificates", "full", 0), "count"),
        "prox.dual_objective_s": (seconds.get("prox.dual_objective", 0.0), "s"),
        "prox.soft_threshold_calls": (count.get("prox.soft_threshold", 0), "count"),
        "prox.soft_threshold_s": (seconds.get("prox.soft_threshold", 0.0), "s"),
    }


# Per-layer counts that must repeat exactly between passes at one thread count.
EXACT_COUNTS = (
    "cli.generate_per_problem",
    "dal.outer_iters", "dal.newton_steps", "dal.cg_iters", "dal.inner_solves",
    "dal.cap_hits", "dal.active_touches", "dal.workspaces", "dal.masked_workspaces",
    "dal.cholesky_calls", "dal.full_products", "baselines.ist_iters",
    "baselines.spectral_norm_calls", "baselines.full_products",
    "certificates.gap_calls", "certificates.full_products", "prox.soft_threshold_calls",
)
