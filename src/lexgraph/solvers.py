"""Inf- and lex-minimization solvers plus the averaging verifier.

Every lex solver fixes the free terminal paths that slope down
(``steepest._slope_tol``), steepest first, then settles the rest by
intervals. The reference lex solver fixes one steepest path per round; the
fast solver fixes whole pressure plateaus per connected component before
descending. Both produce the same (unique) extension on undirected graphs.

The fast solver descends on an explicit work stack, not by recursion: each
round works on the top frame, and a pressure split pushes its components. One
rule picks the kernel, in either orientation. A frame with at most
``DENSE_MAX`` vertices (the whole graph, a component fresh from a split, or
a frame shrunk after a round) skips the sampling, star search and further
splits: a dense kernel takes all-pairs distances on its k x k length matrix
(Floyd-Warshall), fixes the path of the steepest terminal pair, and repeats
until no pair is steeper than the frame's alpha. Every other frame takes
the general loop. The directed solver runs the same descent on weakly
connected components.

A free vertex left over has no sloped path through it. ``_resolve_intervals``
clamps it into [largest fixed value with a path into it, smallest with a
path out of it], both envelopes at scale 0 of the one shortest-path kernel,
``core._dijkstra``. On an undirected graph the bounds agree, so it takes the
value of the fixed vertices it touches.
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
    _dijkstra,
    definitely_greater,
    gradient_vector,
    inf_norm_of,
    require_well_posed,
)
from .envelopes import envelope_pair, high_pressure_subgraph
from .steepest import _nearly_flat_path, _sample_split, _slope_tol, _slopes, steepest_path


@dataclass(frozen=True)
class SolverResult:
    """assignment extends the input labels; inf_norm is measured on the actual
    output gradients. The inf and lex solvers list in fixed_order the paths
    they fixed, all sloped (comp_inf_min: its critical path, if it slopes),
    with gradients, and iterations is its length; the l0 solvers fix no path
    and count their search steps."""

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
    fixed_before_resolution: np.ndarray


@dataclass(frozen=True)
class MaxMinReport:
    ok: bool
    violations: tuple[tuple[int, float, float], ...]  # (vertex, max grad, min grad)


def _fix_path_inplace(values: np.ndarray, path: TerminalPath, lengths: list[float]) -> float:
    """Fix ``path`` in ``values``; ``lengths`` holds the length of each step."""
    first, last = path.first, path.last
    if len(path.vertices) < 2 or np.isnan(values[first]) or np.isnan(values[last]):
        raise NoTerminalPathError("fix_path needs a path of at least one edge with terminal endpoints")
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


def fix_path(g: Graph, v0: PartialAssignment, path: TerminalPath) -> PartialAssignment:
    """Assign interior free vertices of a steepest fixable path by linear
    interpolation in path-length coordinate; existing values are unchanged."""
    values = v0.values.copy()
    _fix_path_inplace(values, path, g.path_lengths(path.vertices))
    return PartialAssignment(values)


def _terminal_edge_mask(g: Graph, values: np.ndarray) -> np.ndarray:
    fixed = ~np.isnan(values)
    return fixed[g.edge_u] & fixed[g.edge_v]


def _sloped_steepest(g: Graph, v0: PartialAssignment, seed: int, tol: float) -> TerminalPath | None:
    """``steepest_path`` if it slopes down, else ``_nearly_flat_path``: None
    is the one answer "no sloped path left"."""
    try:
        path = steepest_path(g, v0, seed=seed, tol=tol)
    except NoTerminalPathError:
        path = None
    return path if _slopes(g, path, tol) else _nearly_flat_path(g, v0, np.random.default_rng(seed))


def comp_inf_min(g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL) -> SolverResult:
    """Inf-minimizer: the midpoint of the two extremal extensions at the
    critical gradient (max terminal-terminal edge gradient vs steepest free
    terminal path)."""
    require_well_posed(g, v0)
    if v0.is_complete:
        return SolverResult(v0.values.copy(), inf_norm_of(g, v0.values), 0, ())
    tt = _terminal_edge_mask(g, v0.values)
    alpha = inf_norm_of(g.with_edge_mask(tt), v0.values)  # over terminal-terminal edges
    pruned = g.with_edge_mask(~tt)
    fixed = ()
    path = _sloped_steepest(pruned, v0, seed=seed, tol=tol)
    if path is not None:
        alpha, fixed = max(alpha, path.gradient), ((path, path.gradient),)
    vlow, vhigh = envelope_pair(pruned, v0, alpha)
    values = np.where(v0.terminal_mask(), v0.values, 0.5 * (vlow.values + vhigh.values))
    return SolverResult(values, inf_norm_of(g, values), len(fixed), fixed)


def comp_lex_min(
    g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL
) -> SolverResult:
    """Reference lex-minimizer: fix one steepest free terminal path per round
    while one slopes down, then resolve the leftovers by intervals."""
    if g.directed:
        raise ValueError("comp_lex_min handles undirected graphs; use directed_lex_min")
    require_well_posed(g, v0)
    rng = np.random.default_rng(seed)
    values = v0.values.copy()
    fixed: list[tuple[TerminalPath, float]] = []
    prev = math.inf
    # the pressure test resolves gradients no finer than tol * value scale /
    # path length, so the ordering check gets the same slack
    label_scale = float(np.nanmax(np.abs(v0.values), initial=1.0))
    grad_slack = 1e-7 * label_scale / min(1.0, float(g.edge_len.min())) if g.m else 0.0
    while np.isnan(values).any():
        work = g.with_edge_mask(~_terminal_edge_mask(g, values))
        path = _sloped_steepest(work, PartialAssignment(values), seed=int(rng.integers(2**63)), tol=tol)
        if path is None:
            break
        if path.gradient > prev + grad_slack:
            raise LexgraphError(
                f"fixed gradients must be non-increasing; got {path.gradient} after {prev}"
            )
        prev = min(prev, path.gradient)
        grad = _fix_path_inplace(values, path, g.path_lengths(path.vertices))
        fixed.append((path, grad))
    values, _ = _resolve_intervals(g, v0, values)
    return SolverResult(values, inf_norm_of(g, values), len(fixed), tuple(fixed))


#: Frames of the descent with at most this many vertices are solved by the
#: dense kernel ``_fix_dense``; larger ones take the sample / star search /
#: pressure split loop. On 3000-vertex cube-kNN instances, when only split components went to the kernel, every
#: cutoff from 16 to 96 cut the solve by 37-47%, 48 by the most; at 128 the
#: kernel's O(k^3) work per fix gave back much of the gain. At 48, on seed 0,
#: 977 kernel calls take 1,758 of the 1,766 fixes and the general loop runs
#: 113 rounds.
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
    graph), ``depth`` pressure splits below the whole graph."""

    g: Graph
    orig: np.ndarray
    alpha: float
    depth: int = 0
    started: bool = False


def _fix_paths_above(g: Graph, v0: PartialAssignment, seed: int, tol: float) -> _FastState:
    """The pressure descent at alpha 0: fix every free terminal path of g of
    positive gradient, descending into each (weakly) connected high-pressure
    component.

    The descent runs a round of ``_split_round`` on the top frame of an
    explicit work stack and pops the frame once a round returns False. A
    split pushes its components onto the stack, so a component is finished
    before its next sibling starts."""
    require_well_posed(g, v0)
    state = _FastState(g, v0.values.copy(), np.random.default_rng(seed), tol)
    stack = [_Frame(g, np.arange(g.n, dtype=np.int64), 0.0)]
    while stack:
        frame = stack[-1]
        if frame.depth >= 4096:  # pressure splits below the whole graph
            raise LexgraphError("pressure descent too deep; instance is pathological")
        if not _split_round(frame, stack, state):
            stack.pop()
    return state


def _split_round(frame: _Frame, stack: list[_Frame], state: _FastState) -> bool:
    """One round on a frame; False once the frame is done.

    The round works on its frame's graph without the edges between two fixed
    vertices. A split component is cut from such a graph; the root, and a
    frame whose last round fixed vertices or split, prune it here, once. A
    started frame below the root then shrinks to the vertices still steeper
    than alpha; the root never shrinks. A frame of at most DENSE_MAX
    vertices goes to the dense kernel and ends. Otherwise ``_sample_split``:
    fix the sampled path if nothing is steeper and it slopes down (if it
    does not, the root fixes a ``_nearly_flat_path`` before it ends), or
    else push the components of the pressure split above it."""
    work = frame.g
    if frame.started or frame.depth == 0:
        local_vals = state.values[frame.orig]
        if not np.isnan(local_vals).any():
            return False
        work = frame.g.with_edge_mask(~_terminal_edge_mask(frame.g, local_vals))
    if frame.started and frame.depth > 0:
        shrink = high_pressure_subgraph(work, PartialAssignment(local_vals), frame.alpha, tol=state.tol)
        if shrink.graph.n == 0:
            return False
        frame.g = work = shrink.graph
        frame.orig = frame.orig[shrink.vertices]
    if frame.g.n <= DENSE_MAX:
        _fix_dense(frame.g, frame.orig, frame.alpha, state)
        return False
    frame.started = True
    g, orig = work, frame.orig
    local_vals = state.values[orig]
    if not np.isnan(local_vals).any():
        return False
    cur = PartialAssignment(local_vals)
    best, hp = _sample_split(g, cur, state.rng, state.tol)
    if hp.graph.m == 0:
        if not _slopes(g, best, state.tol):
            best = None if frame.depth else _nearly_flat_path(g, cur, state.rng)
        if best is None:
            return False
        mapped = TerminalPath(tuple(int(orig[v]) for v in best.vertices), best.length, best.gradient)
        grad = _fix_path_inplace(state.values, mapped, state.root.path_lengths(mapped.vertices))
        state.fixed.append((mapped, grad))
    else:
        n_comp, comp_labels = _component_labels(hp.graph)
        hp_orig = orig[hp.vertices]
        for c in reversed(range(n_comp)):
            sub, local_ids = hp.graph.induced_subgraph(np.flatnonzero(comp_labels == c))
            stack.append(_Frame(sub, hp_orig[local_ids], hp.alpha, frame.depth + 1))
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
    the first path is fixed if it slopes down, without the alpha test, and
    at alpha 0 so is every path.
    """
    k = g.n
    lengths = np.full((k, k), np.inf)
    lengths[g.edge_u, g.edge_v] = g.edge_len
    if not g.directed:
        lengths[g.edge_v, g.edge_u] = g.edge_len
    floor, floor_tol = sloped = 0.0, _slope_tol(g, state.tol)
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
        if not definitely_greater(grad, floor, floor_tol):
            return  # also when no terminal pair is joined (-inf)
        # walk back from t; the vertex before x minimizes dist(s, u) + len(u, x)
        s, walk = int(terms[i]), [int(terms[j])]
        while walk[-1] != s:
            if len(walk) > k:
                raise LexgraphError("shortest-path walk does not reach its source")
            walk.append(int(np.argmin(dist[s] + usable[:, walk[-1]])))
        walk = np.array(walk[::-1])
        path = TerminalPath(tuple(orig[walk].tolist()), float(tdist[i, j]), grad)
        steps = lengths[walk[:-1], walk[1:]].tolist()
        state.fixed.append((path, _fix_path_inplace(state.values, path, steps)))
        floor, floor_tol = (alpha, state.tol) if alpha > 0 else sloped


def comp_fast_lex_min(g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL) -> SolverResult:
    """Lex-minimizer via per-component pressure descent; same output as
    comp_lex_min, much faster on large graphs.

    Each round samples a steepest path, splits off the connected components
    whose pressure exceeds its gradient (0 if it does not slope down) and
    descends into each, on an explicit work stack. Every frame of at most
    DENSE_MAX vertices is finished by the dense kernel on its all-pairs
    distances. Every path of positive gradient is fixed; a leftover gets the
    value of the fixed vertices it touches. ``fixed_order`` is in depth-first
    descent order, steepest first inside a dense frame."""
    if g.directed:
        raise ValueError("comp_fast_lex_min handles undirected graphs; use directed_lex_min")
    state = _fix_paths_above(g, v0, seed, tol)
    values, _ = _resolve_intervals(g, v0, state.values)
    return SolverResult(values, inf_norm_of(g, values), len(state.fixed), tuple(state.fixed))


def directed_lex_min(
    g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = DEFAULT_TOL
) -> DirectedLexResult:
    """Directed lex-minimization: fix every free terminal path of positive
    gradient by the pressure descent of ``comp_fast_lex_min``, then resolve
    the leftover interval-constrained vertices.

    The descent splits on weakly connected high-pressure components at the
    sampled gradient if it is definitely above 0, else at tol, and every
    frame of at most DENSE_MAX vertices goes to the dense kernel on its
    asymmetric length matrix. ``fixed_order`` is in depth-first
    descent order, not non-increasing.

    Every edge outside the fixed set must end with directed gradient ~0; the
    chosen completion (interval endpoint, or the value closest to the median
    of the original labels) satisfies that, and any numerical violations are
    reported rather than swallowed.
    """
    if not g.directed:
        raise ValueError("directed_lex_min needs a directed graph")
    state = _fix_paths_above(g, v0, seed, tol)
    fixed_mask = ~np.isnan(state.values)
    values, ambiguous = _resolve_intervals(g, v0, state.values)
    grads = gradient_vector(g, values)
    outside = ~(fixed_mask[g.edge_u] & fixed_mask[g.edge_v])
    bad = np.flatnonzero(outside & definitely_greater(grads, 0.0, tol))
    violations = tuple(zip(bad.tolist(), grads[bad].tolist()))
    result = SolverResult(values, inf_norm_of(g, values), len(state.fixed), tuple(state.fixed))
    return DirectedLexResult(result, tuple(ambiguous), violations, fixed_mask)


def _resolve_intervals(g: Graph, v0: PartialAssignment, values: np.ndarray):
    """(values, ambiguous): assign the free vertices left in ``values``, in
    place. Constraints: along every remaining edge (x, y) the completion must
    satisfy v(x) <= v(y), so a free vertex x gets the interval [max fixed
    value with a path into x, min fixed value with a path out of x], and the
    value in it closest to the median of the labels of v0. Both bounds are
    shortest-path envelopes at scale 0 from the fixed vertices. On a
    directed graph they run on the edges that do not enter (for the lower
    bound) or leave (for the upper) a fixed vertex. On an undirected graph
    both run on the edges that do not join two fixed vertices, and agree
    once no path of positive gradient is left."""
    fixed = ~np.isnan(values)
    if fixed.all():
        return values, []
    median = float(statistics.median(v0.values[v0.terminals()].tolist()))
    if g.directed:
        low_edges, high_edges = ~fixed[g.edge_v], ~fixed[g.edge_u]
    else:
        low_edges = high_edges = ~(fixed[g.edge_u] & fixed[g.edge_v])
    src = np.flatnonzero(fixed)
    lower = -_dijkstra(g.with_edge_mask(low_edges), src, -values[src], 0.0, False)[0]
    upper = _dijkstra(g.with_edge_mask(high_edges), src, values[src], 0.0, True)[0]
    ambiguous = []
    for x in np.flatnonzero(~fixed):
        lo, hi = float(lower[x]), float(upper[x])
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
    free = np.flatnonzero(~v0.terminal_mask())
    hi, lo = gmax[free], gmin[free]
    # an isolated free vertex (hi = -inf) is skipped; ill-posed instances report elsewhere
    with np.errstate(invalid="ignore"):
        bad = np.isfinite(hi) & (np.abs(hi + lo) > tol * np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo))))
    violations = tuple(zip(free[bad].tolist(), hi[bad].tolist(), lo[bad].tolist()))
    return MaxMinReport(not violations, violations)

