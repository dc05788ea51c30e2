"""Outside-in tracer: wraps library functions from outside the program.

Each traced function is replaced at every place a ``lexgraph`` module binds
it: its defining module, every module that pulled it in with
``from .x import y``, the package namespace, and, for ``Graph`` methods, the
class. The wrapper records a span (name, start, end, parent span) in memory
and, for some functions, exact counts derived from the arguments and the
result. ``uninstall`` puts every original back. Nothing in ``src/`` knows
about the tracer.

Per-layer metrics are named ``<module>.<function>.<quantity>``: ``s`` is the
total time of the outermost calls, ``self_s`` that time minus the time of
traced functions they called, and counts are exact.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np


def _finite(arr) -> int:
    return int(np.isfinite(arr).sum())


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None else 0


# name -> (module, attribute path, counts from (args, kwargs, result))
SPANS = {
    "cli.read_edge_file": ("lexgraph.cli", "read_edge_file", lambda a, kw, r: {"cli.bytes_in": _file_size(a[0])}),
    "cli.read_label_file": ("lexgraph.cli", "read_label_file", lambda a, kw, r: {"cli.bytes_in": _file_size(a[0])}),
    "cli.write_assignment": ("lexgraph.cli", "write_assignment", lambda a, kw, r: {"cli.bytes_out": _file_size(a[0])}),
    "core.Graph.__init__": ("lexgraph.core", "Graph.__init__", None),
    "core.Graph.adjacency_lists": ("lexgraph.core", "Graph.adjacency_lists", None),
    "core.Graph.induced_subgraph": ("lexgraph.core", "Graph.induced_subgraph", None),
    "core.Graph.with_edge_mask": ("lexgraph.core", "Graph.with_edge_mask", None),
    "core.check_well_posed": ("lexgraph.core", "check_well_posed", None),
    "core.single_source_distances": (
        "lexgraph.core",
        "single_source_distances",
        lambda a, kw, r: {"core.single_source_distances.vertices": _finite(r[0] if isinstance(r, tuple) else r)},
    ),
    "core.terminal_pair_distances": (
        "lexgraph.core",
        "terminal_pair_distances",
        lambda a, kw, r: {"core.terminal_pair_distances.bytes_computed": 8 * r[0].shape[0] * a[0].n},
    ),
    "envelopes.mod_dijkstra": (
        "lexgraph.envelopes",
        "mod_dijkstra",
        lambda a, kw, r: {"envelopes.mod_dijkstra.vertices": _finite(r.values)},
    ),
    "envelopes.high_pressure_subgraph": (
        "lexgraph.envelopes",
        "high_pressure_subgraph",
        lambda a, kw, r: {
            "envelopes.high_pressure_subgraph.in_vertices": a[0].n,
            "envelopes.high_pressure_subgraph.out_vertices": r.graph.n,
        },
    ),
    "steepest.steepest_path": ("lexgraph.steepest", "steepest_path", None),
    "solvers.comp_fast_lex_min": ("lexgraph.solvers", "comp_fast_lex_min", None),
    "solvers.directed_lex_min": ("lexgraph.solvers", "directed_lex_min", None),
    "l0reg.outlier_exact": ("lexgraph.l0reg", "outlier_exact", None),
    "l0reg.min_vc_tcdag": (
        "lexgraph.l0reg",
        "min_vc_tcdag",
        lambda a, kw, r: {"l0reg.min_vc_tcdag.arcs": len(a[0].arcs)},
    ),
    "l0reg.hopcroft_karp": ("lexgraph.l0reg", "hopcroft_karp", None),
}

# name -> (module, attribute path): counted, no span, so their time stays in
# the caller's self time
COUNTERS = {
    "solvers.path_fixes": ("lexgraph.solvers", "_fix_path_inplace"),
    "envelopes.mod_dijkstra.scipy_calls": ("lexgraph.envelopes", "_scipy_mod_dijkstra"),
}

# every public function of the oracle module counts toward oracles.calls
ORACLE_MODULE = "lexgraph.oracles"

# per-layer metric -> unit, in the order they are printed
PER_LAYER = {
    "cli.read_edge_file.self_s": "s",
    "core.Graph.__init__.s": "s",
    "cli.bytes_in": "bytes",
    "cli.write_assignment.s": "s",
    "cli.bytes_out": "bytes",
    "core.check_well_posed.s": "s",
    "envelopes.mod_dijkstra.calls": "count",
    "envelopes.mod_dijkstra.s": "s",
    "envelopes.mod_dijkstra.vertices": "count",
    "envelopes.mod_dijkstra.scipy_calls": "count",
    "core.single_source_distances.calls": "count",
    "core.single_source_distances.s": "s",
    "core.single_source_distances.vertices": "count",
    "core.Graph.adjacency_lists.calls": "count",
    "core.Graph.adjacency_lists.s": "s",
    "envelopes.high_pressure_subgraph.calls": "count",
    "envelopes.high_pressure_subgraph.self_s": "s",
    "envelopes.high_pressure_subgraph.in_vertices": "count",
    "envelopes.high_pressure_subgraph.out_vertices": "count",
    "core.Graph.induced_subgraph.calls": "count",
    "core.Graph.induced_subgraph.s": "s",
    "core.Graph.with_edge_mask.calls": "count",
    "solvers.comp_fast_lex_min.self_s": "s",
    "solvers.path_fixes": "count",
    "solvers.fixes_per_split": "ratio",
    "steepest.steepest_path.calls": "count",
    "steepest.steepest_path.s": "s",
    "steepest.steepest_path.self_s": "s",
    "solvers.directed_lex_min.self_s": "s",
    "core.terminal_pair_distances.s": "s",
    "core.terminal_pair_distances.bytes_computed": "bytes",
    "l0reg.outlier_exact.self_s": "s",
    "l0reg.min_vc_tcdag.calls": "count",
    "l0reg.min_vc_tcdag.s": "s",
    "l0reg.min_vc_tcdag.arcs": "count",
    "l0reg.hopcroft_karp.s": "s",
    "oracles.calls": "count",
    "trace.overhead_s": "s",
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the target no longer exists."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counts for one traced call sequence; install, run, uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, outermost]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, name, fn, measure):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, active[name] == 0])
            stack.append(idx)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[name] -= 1
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            counts[name + ".calls"] += 1
            if measure is not None:
                counts.update(measure(args, kwargs, result))
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, original, wrapper, owner=None, attr=None) -> None:
        """Rebind ``original`` to ``wrapper`` wherever a lexgraph module holds it."""
        if owner is not None and isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lexgraph" or mod_name.startswith("lexgraph.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        importlib.import_module("lexgraph.cli")
        oracles = importlib.import_module(ORACLE_MODULE)
        for name, (module, path, measure) in SPANS.items():
            hit = _resolve(module, path)
            if hit is None:
                self.missing.append(name)
                continue
            owner, attr, fn = hit
            self._replace(fn, self._span_wrapper(name, fn, measure), owner, attr)
        for name, (module, path) in COUNTERS.items():
            hit = _resolve(module, path)
            if hit is None:
                self.missing.append(name)
                continue
            owner, attr, fn = hit
            self._replace(fn, self._count_wrapper(name, fn), owner, attr)
        for attr, fn in list(vars(oracles).items()):
            if callable(fn) and getattr(fn, "__module__", None) == ORACLE_MODULE and not attr.startswith("_"):
                self._replace(fn, self._count_wrapper("oracles.calls", fn), oracles, attr)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived metrics -------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """(total seconds of outermost calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _, outermost) in enumerate(self.spans):
            if outermost:
                total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def write_spans(self, path) -> None:
        """Spans as TSV: index, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Timed per-layer metrics of one traced call sequence."""
    total, own = tracer.totals()
    out = {}
    for metric, unit in PER_LAYER.items():
        if unit != "s" or metric == "trace.overhead_s":
            continue
        name, quantity = metric.rsplit(".", 1)
        out[metric] = float((own if quantity == "self_s" else total)[name])
    return out


def layer_counts(c: Counter) -> dict[str, float]:
    """Exact per-layer metrics from the counts of traced call sequences
    (``Tracer.counts``, or several of them added up)."""
    out = {}
    for metric, unit in PER_LAYER.items():
        if unit == "s":
            continue
        out[metric] = c[metric]
    splits = c["envelopes.high_pressure_subgraph.calls"]
    out["solvers.fixes_per_split"] = c["solvers.path_fixes"] / splits if splits else 0.0
    return out
