"""Inf- and lex-minimization solvers plus the averaging verifier.

The reference lex solver repeatedly fixes a steepest free terminal path; the
fast solver fixes whole pressure plateaus per connected component before
descending. Both produce the same (unique) extension on undirected graphs.

The fast solver descends on an explicit work stack, not by recursion. A
component of a pressure split with at most ``DENSE_MAX`` vertices skips the
sampling, star search and further splits: a dense kernel takes all-pairs
distances on its k x k length matrix (Floyd-Warshall), fixes the path of the
steepest terminal pair, and repeats until no pair is steeper than the split's
gradient. Larger components, and the whole graph at the top level, take the
general loop.

The directed solver runs the same descent on weakly connected components,
fixing only paths of positive gradient, then resolves the free leftovers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    Graph,
    LexgraphError,
    NoTerminalPathError,
    PartialAssignment,
    TerminalPath,
    _component_labels,
    definitely_greater,
    gradient_vector,
    inf_norm_of,
    require_well_posed,
)
from .envelopes import envelope_pair, high_pressure_subgraph
from .steepest import _sampled_steepest, steepest_path


@dataclass(frozen=True)
class SolverResult:
    """assignment extends the input labels; inf_norm is measured on the actual
    output gradients; iterations counts path fixes (1 for the direct inf solve)."""

    assignment: np.ndarray
    inf_norm: float
    iterations: int
    fixed_order: tuple[tuple[TerminalPath, float], ...]


@dataclass(frozen=True)
class AmbiguousVertex:
    vertex: int
    lower: float
    upper: float
    assigned: float


@dataclass(frozen=True)
class DirectedLexResult:
    result: SolverResult
    ambiguous: tuple[AmbiguousVertex, ...]
    # edges outside the fixed set whose final directed gradient is not ~0
    violations: tuple[tuple[int, float], ...]
    # vertices pinned by path fixing, before interval resolution
    fixed_before_resolution: np.ndarray | None = None


@dataclass(frozen=True)
class MaxMinReport:
    ok: bool
    violations: tuple[tuple[int, float, float], ...]  # (vertex, max grad, min grad)


def _fix_path_inplace(g: Graph, values: np.ndarray, path: TerminalPath, tol: float) -> float:
    first, last = path.first, path.last
    if np.isnan(values[first]) or np.isnan(values[last]):
        raise NoTerminalPathError("fix_path needs a path with terminal endpoints")
    lengths = []
    for a, b in zip(path.vertices, path.vertices[1:]):
        hit = g.edge_between(a, b)
        if hit is None:
            raise NoTerminalPathError(f"path step ({a},{b}) is not an edge")
        lengths.append(hit[1])
    total = float(sum(lengths))
    grad = (values[first] - values[last]) / total
    run = 0.0
    for (a, b), w in zip(zip(path.vertices, path.vertices[1:]), lengths):
        run += w
        if b == last:
            continue
        target = values[first] - grad * run
        if np.isnan(values[b]):
            values[b] = target
        elif abs(values[b] - target) > 1e-6 * max(1.0, abs(target), abs(values[b])):
            raise LexgraphError(
                f"path revisits vertex {b} with inconsistent value "
                f"({values[b]} vs {target}); not a steepest fixable path"
            )
    if __debug__:
        for (a, b), w in zip(zip(path.vertices, path.vertices[1:]), lengths):
            drop = values[a] - values[b]
            assert abs(drop - grad * w) <= 1e-6 * max(1.0, abs(values[a]), abs(values[b])), (
                "fixed path does not have constant gradient"
            )
    return float(grad)


def fix_path(g: Graph, v0: PartialAssignment, path: TerminalPath, tol: float = DEFAULT_TOL) -> PartialAssignment:
    """Assign interior free vertices of a steepest fixable path by linear
    interpolation in path-length coordinate; existing values are unchanged."""
    values = v0.values.copy()
    _fix_path_inplace(g, values, path, tol)
    return PartialAssignment(values)


def _terminal_edge_mask(g: Graph, values: np.ndarray) -> np.ndarray:
    fixed = ~np.isnan(values)
    return fixed[g.edge_u] & fixed[g.edge_v]


def comp_inf_min(g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL) -> SolverResult:
    """Inf-minimizer: the midpoint of the two extremal extensions at the
    critical gradient (max terminal-terminal edge gradient vs steepest free
    terminal path)."""
    require_well_posed(g, v0)
    tt = _terminal_edge_mask(g, v0.values)
    alpha = inf_norm_of(g.with_edge_mask(tt), v0.values)  # over terminal-terminal edges
    pruned = g.with_edge_mask(~tt)
    fixed_order: tuple[tuple[TerminalPath, float], ...] = ()
    if not v0.is_complete:
        path = steepest_path(pruned, v0, seed=seed, tol=tol)
        alpha = max(alpha, path.gradient)
        fixed_order = ((path, path.gradient),)
    vlow, vhigh = envelope_pair(pruned, v0, alpha)
    values = np.where(v0.terminal_mask(), v0.values, 0.5 * (vlow.values + vhigh.values))
    return SolverResult(values, inf_norm_of(g, values), 1, fixed_order)


def comp_lex_min(
    g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL
) -> SolverResult:
    """Reference lex-minimizer: fix one steepest free terminal path per round."""
    if g.directed:
        raise ValueError("comp_lex_min handles undirected graphs; use directed_lex_min")
    require_well_posed(g, v0)
    rng = np.random.default_rng(seed)
    values = v0.values.copy()
    fixed: list[tuple[TerminalPath, float]] = []
    prev = math.inf
    # the pressure test resolves gradients no finer than tol * value scale /
    # path length, so the ordering check gets the same slack
    label_scale = max(1.0, float(np.nanmax(np.abs(v0.values))))
    grad_slack = 1e-7 * label_scale / min(1.0, float(g.edge_len.min())) if g.m else 0.0
    while np.isnan(values).any():
        cur = PartialAssignment(values)
        work = g.with_edge_mask(~_terminal_edge_mask(g, values))
        path = steepest_path(work, cur, seed=int(rng.integers(2**63)), tol=tol)
        if path.gradient > prev + grad_slack:
            raise LexgraphError(
                f"fixed gradients must be non-increasing; got {path.gradient} after {prev}"
            )
        prev = min(prev, path.gradient)
        grad = _fix_path_inplace(g, values, path, tol)
        fixed.append((path, grad))
    return SolverResult(values, inf_norm_of(g, values), len(fixed), tuple(fixed))


#: Components of a pressure split with at most this many vertices are solved
#: by the dense kernel ``_fix_dense``; larger ones, and the whole graph at the
#: top level, take the sample / star search / pressure split loop. Measured on
#: 3000-vertex cube-kNN instances, where 1,072 of 1,095 split components have
#: at most 48 vertices and take 1,691 of 1,766 fixes: every cutoff from 16 to
#: 96 cuts the solve by 37-47%, 48 by the most; at 128 the kernel's O(k^3)
#: work per fix gives back much of the gain.
DENSE_MAX = 48


@dataclass(slots=True)
class _FastState:
    root: Graph
    values: np.ndarray
    rng: np.random.Generator
    tol: float
    fixed: list[tuple[TerminalPath, float]] = field(default_factory=list)


@dataclass(slots=True)
class _Frame:
    """One component on the descent's work stack: fix every free terminal
    path steeper than ``alpha`` inside ``g`` (vertex ids ``orig`` in the root
    graph). ``children`` holds the pending components of its last pressure
    split, the next one last, and ``child_alpha`` that split's gradient."""

    g: Graph
    orig: np.ndarray
    alpha: float
    children: list[tuple[Graph, np.ndarray]] = field(default_factory=list)
    child_alpha: float = 0.0
    started: bool = False


def _fix_paths_above(g: Graph, v0: PartialAssignment, seed: int, tol: float) -> _FastState:
    """The pressure descent at alpha 0: fix every free terminal path of g (on
    a directed graph, of positive gradient), descending into each (weakly)
    connected high-pressure component.

    The descent runs on an explicit work stack in depth-first order: a
    component is finished before its next sibling starts. A component below
    the top level with at most DENSE_MAX vertices goes to ``_fix_dense``."""
    require_well_posed(g, v0)
    state = _FastState(g, v0.values.copy(), np.random.default_rng(seed), tol)
    stack = [_Frame(g, np.arange(g.n, dtype=np.int64), 0.0)]
    while stack:
        if len(stack) > 4096:
            raise LexgraphError("pressure descent too deep; instance is pathological")
        frame = stack[-1]
        if frame.children:
            sub, sub_orig = frame.children.pop()
            # below an undirected split at gradient 0 the flat walks that
            # finish dangling free vertices are left; only the general loop makes those
            if (frame.child_alpha > 0.0 or sub.directed) and sub.n <= DENSE_MAX:
                _fix_dense(sub, sub_orig, frame.child_alpha, state)
            else:
                stack.append(_Frame(sub, sub_orig, frame.child_alpha))
        elif not _split_round(frame, state):
            stack.pop()
    return state


def _split_round(frame: _Frame, state: _FastState) -> bool:
    """One round of the general loop on a frame: after the first round, shrink
    to the vertices still steeper than alpha (a positive alpha, or any alpha
    on a directed graph); then sample a steepest path, and fix it if nothing
    is steeper, else queue the components of the pressure split above it.
    False once the frame is done."""
    if frame.started and (frame.alpha > 0.0 or frame.g.directed):
        local_vals = state.values[frame.orig]
        if not np.isnan(local_vals).any():
            return False
        work = frame.g.with_edge_mask(~_terminal_edge_mask(frame.g, local_vals))
        shrink = high_pressure_subgraph(work, PartialAssignment(local_vals), frame.alpha, tol=state.tol)
        if shrink.graph.n == 0:
            return False
        frame.g = shrink.graph
        frame.orig = frame.orig[shrink.vertices]
    frame.started = True
    g, orig = frame.g, frame.orig
    local_vals = state.values[orig]
    if not np.isnan(local_vals).any():
        return False
    cur = PartialAssignment(local_vals)
    work = g.with_edge_mask(~_terminal_edge_mask(g, local_vals))
    if work.m == 0:
        raise LexgraphError("free vertices left with no usable edges")
    best = _sampled_steepest(work, cur, state.rng, state.tol)
    if best is None:
        raise LexgraphError("no terminal path found in a well-posed instance")
    threshold = max(best.gradient, 0.0) if g.directed else best.gradient
    hp = high_pressure_subgraph(work, cur, threshold, tol=state.tol)
    if hp.graph.m == 0:
        # a directed path is fixed only if it slopes down; else nothing does
        if g.directed and not definitely_greater(best.gradient, 0.0, state.tol):
            return False
        mapped = TerminalPath(tuple(int(orig[v]) for v in best.vertices), best.length, best.gradient)
        grad = _fix_path_inplace(state.root, state.values, mapped, state.tol)
        state.fixed.append((mapped, grad))
    else:
        n_comp, comp_labels = _component_labels(hp.graph)
        hp_orig = orig[hp.vertices]
        frame.child_alpha = threshold
        for c in reversed(range(n_comp)):
            sub, local_ids = hp.graph.induced_subgraph(np.flatnonzero(comp_labels == c))
            frame.children.append((sub, hp_orig[local_ids]))
    return True


def _fix_dense(g: Graph, orig: np.ndarray, alpha: float, state: _FastState) -> None:
    """The dense kernel: fix the free terminal paths of the small component g
    steeper than alpha, steepest first, from all-pairs distances on its
    k x k length matrix (asymmetric on a directed graph), recomputed after
    every fix.

    Paths steeper than alpha stay inside the high-pressure component g, so
    stopping at alpha hands the rest back to the caller. If the steepest
    pair's shortest path runs through another terminal r, both halves have
    the pair's gradient (the mediant inequality is tight at the maximum), so
    ``_fix_path_inplace``'s consistency check holds. As in the general loop,
    the first path is fixed without the alpha test (a directed one only if
    it slopes down), so every undirected call progresses.
    """
    k = g.n
    lengths = np.full((k, k), np.inf)
    lengths[g.edge_u, g.edge_v] = g.edge_len
    if not g.directed:
        lengths[g.edge_v, g.edge_u] = g.edge_len
    first = True
    while True:
        vals = state.values[orig]
        fixed = ~np.isnan(vals)
        if fixed.all():
            return
        # an edge between two fixed vertices carries no free path
        usable = np.where(fixed[:, None] & fixed[None, :], np.inf, lengths)
        dist = usable.copy()
        np.fill_diagonal(dist, 0.0)
        for m in range(k):  # Floyd-Warshall
            np.minimum(dist, dist[:, m, None] + dist[m], out=dist)
        terms = np.flatnonzero(fixed)
        tdist = dist[np.ix_(terms, terms)]
        np.fill_diagonal(tdist, np.inf)
        grads = (vals[terms, None] - vals[None, terms]) / tdist
        grads[np.isinf(tdist)] = -np.inf
        i, j = divmod(int(np.argmax(grads)), terms.shape[0])
        grad = float(grads[i, j])
        if first and not g.directed:
            if grad == -np.inf:
                raise LexgraphError("no terminal path found in a well-posed instance")
        elif not definitely_greater(grad, 0.0 if first else alpha, state.tol):
            return  # also when no terminal pair is joined (-inf)
        # walk back from t; the vertex before x minimizes dist(s, u) + len(u, x)
        s, walk = int(terms[i]), [int(terms[j])]
        while walk[-1] != s:
            if len(walk) > k:
                raise LexgraphError("shortest-path walk does not reach its source")
            walk.append(int(np.argmin(dist[s] + usable[:, walk[-1]])))
        path = TerminalPath(tuple(int(orig[x]) for x in reversed(walk)), float(tdist[i, j]), grad)
        state.fixed.append((path, _fix_path_inplace(state.root, state.values, path, state.tol)))
        first = False


def comp_fast_lex_min(g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL) -> SolverResult:
    """Lex-minimizer via per-component pressure descent; same output as
    comp_lex_min, much faster on large graphs.

    Each round samples a steepest path, splits off the connected components
    whose pressure exceeds its gradient and descends into each, on an explicit
    work stack. Components of a split with at most DENSE_MAX vertices are
    finished by the dense kernel on their all-pairs distances."""
    if g.directed:
        raise ValueError("comp_fast_lex_min handles undirected graphs; use directed_lex_min")
    # at alpha 0 the undirected descent returns only once every vertex is fixed
    state = _fix_paths_above(g, v0, seed, tol)
    return SolverResult(state.values, inf_norm_of(g, state.values), len(state.fixed), tuple(state.fixed))


def directed_lex_min(
    g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL
) -> DirectedLexResult:
    """Directed lex-minimization: fix every free terminal path of positive
    gradient by the pressure descent of ``comp_fast_lex_min``, then resolve
    the leftover interval-constrained vertices.

    The descent splits on weakly connected high-pressure components at the
    threshold max(gradient, 0), and components of at most DENSE_MAX vertices,
    at any alpha, go to the dense kernel on their asymmetric length matrix.
    ``fixed_order`` is in depth-first descent order, not non-increasing.

    Every edge outside the fixed set must end with directed gradient ~0; the
    chosen completion (interval endpoint, or the value closest to the median
    of the original labels) satisfies that, and any numerical violations are
    reported rather than swallowed.
    """
    if not g.directed:
        raise ValueError("directed_lex_min needs a directed graph")
    state = _fix_paths_above(g, v0, seed, tol)
    values, fixed = state.values, state.fixed

    fixed_mask = ~np.isnan(values)
    ambiguous: list[AmbiguousVertex] = []
    if not fixed_mask.all():
        median = float(statistics.median(v0.values[v0.terminals()].tolist()))
        values, ambiguous = _resolve_intervals(g, values, median)

    grads = gradient_vector(g, values)
    outside = ~(fixed_mask[g.edge_u] & fixed_mask[g.edge_v])
    violations = tuple(
        (int(e), float(grads[e]))
        for e in np.flatnonzero(outside)
        if definitely_greater(grads[e], 0.0, tol)
    )
    result = SolverResult(values, inf_norm_of(g, values), len(fixed), tuple(fixed))
    return DirectedLexResult(result, tuple(ambiguous), violations, fixed_mask)


def _resolve_intervals(g: Graph, values: np.ndarray, median: float):
    """Assign leftover free vertices. Constraints: along every remaining edge
    (x, y) the completion must satisfy v(x) <= v(y), so each strongly
    connected free component gets one interval [max upstream fixed value,
    min downstream fixed value]."""
    free = np.flatnonzero(np.isnan(values))
    local = np.full(g.n, -1, dtype=np.int64)
    local[free] = np.arange(free.size)
    eu, ev = g.edge_u, g.edge_v
    n_comp, comp = _component_labels(g.induced_subgraph(free)[0], strong=True)

    lower = np.full(n_comp, -np.inf)
    upper = np.full(n_comp, np.inf)
    succ: list[set[int]] = [set() for _ in range(n_comp)]
    pred: list[set[int]] = [set() for _ in range(n_comp)]
    for e in range(g.m):
        u, v = int(eu[e]), int(ev[e])
        lu, lv = local[u], local[v]
        if lu >= 0 and lv >= 0:
            cu, cv = int(comp[lu]), int(comp[lv])
            if cu != cv:
                succ[cu].add(cv)
                pred[cv].add(cu)
        elif lu < 0 and lv >= 0:
            cv = int(comp[lv])
            lower[cv] = max(lower[cv], values[u])
        elif lu >= 0 and lv < 0:
            cu = int(comp[lu])
            upper[cu] = min(upper[cu], values[v])

    order = _topo_order(n_comp, succ, pred)
    for c in order:
        for s in succ[c]:
            lower[s] = max(lower[s], lower[c])
    for c in reversed(order):
        for p in pred[c]:
            upper[p] = min(upper[p], upper[c])

    ambiguous = []
    for i, x in enumerate(free):
        c = int(comp[i])
        lo, hi = float(lower[c]), float(upper[c])
        if math.isinf(lo) and math.isinf(hi):
            val = median
        elif math.isinf(lo):
            val = hi
        elif math.isinf(hi):
            val = lo
        else:
            val = min(max(median, lo), hi)
        values[x] = val
        ambiguous.append(AmbiguousVertex(int(x), lo, hi, float(val)))
    return values, ambiguous


def _topo_order(n: int, succ: list[set[int]], pred: list[set[int]]) -> list[int]:
    indeg = [len(p) for p in pred]
    queue = [c for c in range(n) if indeg[c] == 0]
    order = []
    while queue:
        c = queue.pop()
        order.append(c)
        for s in succ[c]:
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    if len(order) != n:
        raise LexgraphError("free-component condensation is not acyclic")
    return order


def verify_max_min(
    g: Graph, v0: PartialAssignment, values: np.ndarray, tol: float = 1e-7
) -> MaxMinReport:
    """Check the averaging characterization: at every free vertex the largest
    outgoing gradient equals the negated smallest one. Passing is equivalent
    to being the lex-minimizer of the (undirected, well-posed) instance."""
    if g.directed:
        raise ValueError("the max-min averaging characterization is undirected")
    values = np.asarray(values, dtype=np.float64)
    grads_u = (values[g.edge_u] - values[g.edge_v]) / g.edge_len
    gmax = np.full(g.n, -np.inf)
    gmin = np.full(g.n, np.inf)
    np.maximum.at(gmax, g.edge_u, grads_u)
    np.minimum.at(gmin, g.edge_u, grads_u)
    np.maximum.at(gmax, g.edge_v, -grads_u)
    np.minimum.at(gmin, g.edge_v, -grads_u)
    violations = []
    for x in np.flatnonzero(~v0.terminal_mask()):
        hi, lo = gmax[x], gmin[x]
        if not np.isfinite(hi):
            continue  # isolated free vertex; ill-posed instances report elsewhere
        if abs(hi + lo) > tol * max(1.0, abs(hi), abs(lo)):
            violations.append((int(x), float(hi), float(lo)))
    return MaxMinReport(not violations, tuple(violations))


def stability_check(
    g: Graph, v0: PartialAssignment, v1: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL
) -> float:
    """Max pointwise change of the lex-minimizer under a label perturbation;
    bounded by the largest label change."""
    if not np.array_equal(v0.terminal_mask(), v1.terminal_mask()):
        raise ValueError("stability_check needs identical terminal sets")
    a = comp_lex_min(g, v0, seed=seed, tol=tol).assignment
    b = comp_lex_min(g, v1, seed=seed, tol=tol).assignment
    return float(np.abs(a - b).max()) if g.n else 0.0
