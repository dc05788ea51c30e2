"""Inf- and lex-minimization solvers plus the averaging verifier.

Every lex solver fixes the free terminal paths that slope down
(``steepest._slope_tol``), steepest first, then settles the rest by
intervals. The reference lex solver fixes one steepest path per round; the
fast solver fixes whole pressure plateaus per connected component before
descending. Both produce the same (unique) extension on undirected graphs.

The fast solver descends on an explicit work stack, not by recursion: each
round works on the top frame. One rule picks the kernel, in either
orientation. A component with at most ``DENSE_MAX`` vertices (the whole
graph, a component fresh from a split, or a frame shrunk after a round)
skips the sampling, star search and further splits: a dense kernel takes
all-pairs distances on its k x k length matrix (Floyd-Warshall), fixes the
path of the steepest terminal pair, and repeats until no pair is steeper
than the component's alpha. A pressure split sends all its small
components to that kernel at once, in one batch per power-of-two size, and
pushes the larger ones as frames for the general loop. So ``fixed_order``
lists a split's small components first, by padded size, smallest first, and
in component order within a size, each steepest first, then its larger
components depth-first. The directed solver runs the same descent on weakly
connected components.

A free vertex left over has no sloped path through it. ``_resolve_intervals``
clamps it into [largest fixed value with a path into it, smallest with a
path out of it], the high and the low envelope at alpha 0. On an undirected
graph the bounds agree, so it takes the value of the fixed vertices it
touches. Every comparison is at the one tolerance ``core.DEFAULT_TOL``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    PAIR_DISTANCE_BYTES,
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
from .envelopes import _sweep_extend, comp_vhigh, comp_vlow, high_pressure_subgraph
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
    """Fix ``path`` in ``values``, ``lengths`` the length of each step: its
    free interior vertices take the linear interpolation of its end values
    in path length, and values already there stay. Returns the gradient."""
    first, last = path.first, path.last
    if len(path.vertices) < 2 or np.isnan(values[first]) or np.isnan(values[last]):
        raise NoTerminalPathError("a path to fix needs at least one edge and terminal endpoints")
    total = float(sum(lengths))
    grad = (values[first] - values[last]) / total
    run = 0.0
    for b, w in zip(path.vertices[1:], lengths):
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
    return float(grad)


def _terminal_edge_mask(g: Graph, values: np.ndarray) -> np.ndarray:
    fixed = ~np.isnan(values)
    return fixed[g.edge_u] & fixed[g.edge_v]


def _sloped_steepest(g: Graph, v0: PartialAssignment, seed: int) -> TerminalPath | None:
    """``steepest_path`` if it slopes down, else ``_nearly_flat_path``: None
    is the one answer "no sloped path left"."""
    try:
        path = steepest_path(g, v0, seed=seed)
    except NoTerminalPathError:
        path = None
    return path if _slopes(g, path) else _nearly_flat_path(g, v0)


def comp_inf_min(g: Graph, v0: PartialAssignment, seed: int = 0) -> SolverResult:
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
    path = _sloped_steepest(pruned, v0, seed=seed)
    if path is not None:
        alpha, fixed = max(alpha, path.gradient), ((path, path.gradient),)
    values = _sweep_extend(pruned, v0, alpha)
    return SolverResult(values, inf_norm_of(g, values), len(fixed), fixed)


def comp_lex_min(g: Graph, v0: PartialAssignment, seed: int = 0) -> SolverResult:
    """Reference lex-minimizer: fix one steepest free terminal path per round
    while one slopes down, then resolve the leftovers by intervals."""
    if g.directed:
        raise ValueError("comp_lex_min handles undirected graphs; use directed_lex_min")
    require_well_posed(g, v0)
    rng = np.random.default_rng(seed)
    values = v0.values.copy()
    fixed: list[tuple[TerminalPath, float]] = []
    prev = math.inf
    # the pressure test resolves gradients no finer than DEFAULT_TOL * value
    # scale / path length, so the ordering check gets the same slack
    label_scale = float(np.nanmax(np.abs(v0.values), initial=1.0))
    grad_slack = 1e-7 * label_scale / min(1.0, float(g.edge_len.min())) if g.m else 0.0
    while np.isnan(values).any():
        work = g.with_edge_mask(~_terminal_edge_mask(g, values))
        path = _sloped_steepest(work, PartialAssignment(values), seed=int(rng.integers(2**63)))
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


#: Components of the descent with at most this many vertices are solved by
#: the dense kernel ``_fix_dense``; larger ones take the sample / star search
#: / pressure split loop. A split's small components go in batches padded to
#: the next power of two, capped here. Measured with the free-vertex kernel
#: on 3000-vertex cube-kNN instances (seeds 0-2, process time, 15 alternating
#: repetitions): 48 is ahead, 64 behind it by 5% in the median and 32 by 14%;
#: 64 is within the host's noise of 48. At 48, on seed 0, 252 kernel calls
#: fix 998 components and take 1,760 of the 1,766 fixes, and the general
#: loop runs 95 rounds (32: 304 calls, 1,739 fixes, 152 rounds; 64: 250
#: calls, 1,763 fixes, 93 rounds).
DENSE_MAX = 48


@dataclass(slots=True)
class _FastState:
    root: Graph
    values: np.ndarray  # the root's values, then one NaN slot that padding (id -1) reads
    rng: np.random.Generator
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


def _fix_paths_above(g: Graph, v0: PartialAssignment, seed: int) -> _FastState:
    """The pressure descent at alpha 0: fix every free terminal path of g of
    positive gradient, descending into each (weakly) connected high-pressure
    component.

    The descent runs a round of ``_split_round`` on the top frame of an
    explicit work stack and pops the frame once a round returns False. A
    split fixes its small components at once and pushes the others onto the
    stack, so a component is finished before its next sibling starts."""
    require_well_posed(g, v0)
    state = _FastState(g, np.append(v0.values, np.nan), np.random.default_rng(seed))
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
    vertices goes to the dense kernel, as a batch of one, and ends.
    Otherwise ``_sample_split``: fix the sampled path if nothing is steeper
    and it slopes down (if it does not, the root fixes a
    ``_nearly_flat_path`` before it ends), or else ``_split`` on the
    pressure subgraph above it."""
    work = frame.g
    if frame.started or frame.depth == 0:
        local_vals = state.values[frame.orig]
        if not np.isnan(local_vals).any():
            return False
        work = frame.g.with_edge_mask(~_terminal_edge_mask(frame.g, local_vals))
    if frame.started and frame.depth > 0:
        shrink = high_pressure_subgraph(work, PartialAssignment(local_vals), frame.alpha)
        if shrink.graph.n == 0:
            return False
        frame.g = work = shrink.graph
        frame.orig = frame.orig[shrink.vertices]
    if frame.g.n <= DENSE_MAX:
        g = frame.g
        batch = _dense_batch(g, np.zeros(g.n, dtype=np.int64), np.arange(g.n), frame.orig, [0], g.n)
        _fix_dense(*batch, frame.alpha, state)
        return False
    frame.started = True
    g, orig = work, frame.orig
    local_vals = state.values[orig]
    if not np.isnan(local_vals).any():
        return False
    cur = PartialAssignment(local_vals)
    best, hp = _sample_split(g, cur, state.rng)
    if hp.graph.m == 0:
        if not _slopes(g, best):
            best = None if frame.depth else _nearly_flat_path(g, cur)
        if best is None:
            return False
        mapped = TerminalPath(tuple(int(orig[v]) for v in best.vertices), best.length, best.gradient)
        grad = _fix_path_inplace(state.values, mapped, state.root.path_lengths(mapped.vertices))
        state.fixed.append((mapped, grad))
    else:
        _split(hp.graph, orig[hp.vertices], hp.alpha, frame.depth + 1, stack, state)
    return True


def _split(g: Graph, orig: np.ndarray, alpha: float, depth: int, stack: list[_Frame], state: _FastState) -> None:
    """The children of a pressure split: the (weakly) connected components of
    the high-pressure subgraph g (vertex ids ``orig`` in the root graph),
    from one stable argsort of the component labels of the vertices, and
    one of the edges (by ``edge_u``) if a child is large. Every child of at
    most DENSE_MAX vertices is fixed here by the dense kernel, one batch per
    padded size (the next power of two, at most DENSE_MAX), smallest first,
    and in component order within a size (split further only to keep a
    batch within ``PAIR_DISTANCE_BYTES``); every larger child is pushed as a
    frame, the first component on top."""
    n_comp, labels = _component_labels(g)
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_comp)
    starts = np.cumsum(sizes) - sizes
    local = np.empty(g.n, dtype=np.int64)  # position inside the component, in id order
    local[order] = np.arange(g.n) - np.repeat(starts, sizes)
    pad = np.minimum(2 ** np.ceil(np.log2(sizes)).astype(np.int64), DENSE_MAX)
    small = sizes <= DENSE_MAX
    for k in np.unique(pad[small]).tolist():
        comps = np.flatnonzero(small & (pad == k))
        per_call = max(1, PAIR_DISTANCE_BYTES // (8 * k * k))
        for a in range(0, comps.shape[0], per_call):
            _fix_dense(*_dense_batch(g, labels, local, orig, comps[a : a + per_call], k), alpha, state)
    large = np.flatnonzero(~small)
    if large.size == 0:
        return
    edge_comp = labels[g.edge_u]
    edge_order = np.argsort(edge_comp, kind="stable")
    edge_starts = np.concatenate([[0], np.cumsum(np.bincount(edge_comp, minlength=n_comp))])
    for c in reversed(large.tolist()):
        edges = edge_order[edge_starts[c] : edge_starts[c + 1]]
        u, v = local[g.edge_u[edges]], local[g.edge_v[edges]]
        sub = Graph._from_arrays(int(sizes[c]), u, v, g.edge_len[edges], g.directed)
        stack.append(_Frame(sub, orig[order[starts[c] : starts[c] + sizes[c]]], alpha, depth))


def _dense_batch(g: Graph, labels: np.ndarray, local: np.ndarray, orig: np.ndarray, comps, k: int):
    """(orig, lengths) of the components ``comps`` of g, each padded to k
    vertices, for ``_fix_dense``: vertex x of g lies in component labels[x]
    at position local[x] and has id orig[x] in the root graph. The batch
    holds the ids, -1 on padding, and the k x k length matrices, inf where
    there is no edge (asymmetric on a directed graph)."""
    slot = np.full(int(labels.max()) + 1, -1, dtype=np.int64)
    slot[comps] = np.arange(len(comps))
    frame = slot[labels]
    inside = frame >= 0
    batch_orig = np.full((len(comps), k), -1, dtype=np.int64)
    batch_orig[frame[inside], local[inside]] = orig[inside]
    edges = inside[g.edge_u]
    f, u, v = frame[g.edge_u[edges]], local[g.edge_u[edges]], local[g.edge_v[edges]]
    lengths = np.full((len(comps), k, k), np.inf)
    lengths[f, u, v] = g.edge_len[edges]
    if not g.directed:
        lengths[f, v, u] = g.edge_len[edges]
    return batch_orig, lengths


def _fix_dense(orig: np.ndarray, lengths: np.ndarray, alpha: float, state: _FastState) -> None:
    """The dense kernel, on a batch of B small components padded to k
    vertices (``_dense_batch``): in each, fix the free terminal paths steeper
    than alpha, steepest first, from all-pairs distances on its k x k length
    matrix (asymmetric on a directed graph), recomputed after every fix.
    Floyd-Warshall, the argmax, the stop rule and the walk-back run over
    every component still active at once, until none goes on;
    ``_fix_path_inplace`` runs once per path, on ``state.values``, and the
    batch's own copy of its values takes each fixed path's values after
    it; ``state.fixed`` gets each component's paths in batch order. Padding
    (id -1) has no edges and reads the NaN slot at the end of
    ``state.values``, so it never holds a terminal.

    Floyd-Warshall relaxes only through the vertices free in some active
    component, so it measures the paths whose interior is free. The
    steepest pair and its distance stay the same: split at each fixed
    vertex on it, a path has the length-weighted mean of its pieces'
    gradients (the mediant), so a piece between two fixed vertices with a
    free interior is at least as steep. The walk-back stays on a shortest
    path, since a path through a fixed vertex shorter than the steepest
    pair's distance would make that pair steeper still. If the walk-back
    does run through another terminal r, both halves have the pair's
    gradient (the mediant inequality is tight at the maximum), so
    ``_fix_path_inplace``'s consistency check holds.

    Paths steeper than alpha stay inside the high-pressure component, so
    stopping at alpha hands the rest back to the caller. As in the general
    loop, a component's first path is fixed if it slopes down, without the
    alpha test, and at alpha 0 so is every path. A component still active
    after the first pass has fixed a path, so from then on one threshold
    holds for the whole batch.
    """
    n_frames = orig.shape[0]
    real = orig >= 0
    sizes = real.sum(axis=1)
    batch_vals = state.values[orig]  # padding reads the NaN slot; kept up to date with each fix
    # the first path only has to slope down; then every active component has fixed one
    floor, tol = 0.0, _slope_tol(state.root)
    found: list[list[tuple[TerminalPath, float]]] = [[] for _ in range(n_frames)]
    active = np.arange(n_frames)
    while active.size:
        vals = batch_vals[active]
        free = np.isnan(vals) & real[active]
        still = free.any(axis=1)
        active = active[still]
        if not active.size:
            break
        # padding follows the vertices, so the largest active component bounds the work
        k = int(sizes[active].max())
        diag = np.arange(k)
        vals, free = vals[still, :k], free[still, :k]
        fixed = ~np.isnan(vals)
        # an edge between two fixed vertices carries no free path
        usable = np.where(fixed[:, :, None] & fixed[:, None, :], np.inf, lengths[active, :k, :k])
        dist = usable.copy()
        dist[:, diag, diag] = 0.0
        # Floyd-Warshall through the vertices free in some component
        for m in np.flatnonzero(free.any(axis=0)).tolist():
            np.minimum(dist, dist[:, :, m, None] + dist[:, None, m, :], out=dist)
        # a free end (NaN) and the diagonal (0 / 0) read -inf; a pair with
        # no path between them reads 0, which the stop rule never passes
        grads = vals[:, :, None] - vals[:, None, :]
        with np.errstate(invalid="ignore"):
            np.divide(grads, dist, out=grads)
        np.fmax(grads, -np.inf, out=grads)
        s, t = np.divmod(grads.reshape(active.size, k * k).argmax(axis=1), k)
        grad = grads[np.arange(active.size), s, t]
        go = definitely_greater(grad, floor, tol)
        # also stopped: a component with no joined terminal pair
        if not go.any():
            break
        rows, active = np.flatnonzero(go), active[go]
        # the vertex before x on a shortest path from s minimizes dist(s, u) + len(u, x)
        before = np.argmin(dist[rows, s[rows], :, None] + usable[rows], axis=1).tolist()
        for a, (r, f) in enumerate(zip(rows.tolist(), active.tolist())):
            source, walk = int(s[r]), [int(t[r])]
            while walk[-1] != source:  # walk back from t
                if len(walk) > k:
                    raise LexgraphError("shortest-path walk does not reach its source")
                walk.append(before[a][walk[-1]])
            walk.reverse()
            path = TerminalPath(tuple(orig[f, walk].tolist()), float(dist[r, source, walk[-1]]), float(grad[r]))
            steps = lengths[f, walk[:-1], walk[1:]].tolist()
            found[f].append((path, _fix_path_inplace(state.values, path, steps)))
            batch_vals[f, walk] = state.values[orig[f, walk]]
        if alpha > 0:
            floor, tol = alpha, DEFAULT_TOL
    for paths in found:
        state.fixed.extend(paths)


def comp_fast_lex_min(g: Graph, v0: PartialAssignment, seed: int = 0) -> SolverResult:
    """Lex-minimizer via per-component pressure descent; same output as
    comp_lex_min, much faster on large graphs.

    Each round samples a steepest path, splits off the connected components
    whose pressure exceeds its gradient (0 if it does not slope down) and
    descends into each, on an explicit work stack. Every frame of at most
    DENSE_MAX vertices is finished by the dense kernel on its all-pairs
    distances, a split's small components in batches. Every path of
    positive gradient is fixed; a leftover gets the value of the fixed
    vertices it touches. ``fixed_order`` is in descent order: at each split
    its small components first, by padded size and in component order
    within a size, then its larger ones depth-first; steepest first inside a
    dense component."""
    if g.directed:
        raise ValueError("comp_fast_lex_min handles undirected graphs; use directed_lex_min")
    state = _fix_paths_above(g, v0, seed)
    values, _ = _resolve_intervals(g, v0, state.values[:-1])
    return SolverResult(values, inf_norm_of(g, values), len(state.fixed), tuple(state.fixed))


def directed_lex_min(g: Graph, v0: PartialAssignment, seed: int = 0) -> DirectedLexResult:
    """Directed lex-minimization: fix every free terminal path of positive
    gradient by the pressure descent of ``comp_fast_lex_min``, then resolve
    the leftover interval-constrained vertices.

    The descent splits on weakly connected high-pressure components at the
    sampled gradient if it is definitely above 0, else at DEFAULT_TOL, and every
    component of at most DENSE_MAX vertices goes to the dense kernel on its
    asymmetric length matrix. ``fixed_order`` is in the descent order of
    ``comp_fast_lex_min`` (a split's small components first, by padded size
    and in component order within a size, then its larger ones
    depth-first), not non-increasing.

    Every edge outside the fixed set must end with directed gradient ~0; the
    chosen completion (interval endpoint, or the value closest to the median
    of the original labels) satisfies that, and any numerical violations are
    reported rather than swallowed.
    """
    if not g.directed:
        raise ValueError("directed_lex_min needs a directed graph")
    state = _fix_paths_above(g, v0, seed)
    fixed_mask = ~np.isnan(state.values[:-1])
    values, ambiguous = _resolve_intervals(g, v0, state.values[:-1])
    grads = gradient_vector(g, values)
    outside = ~(fixed_mask[g.edge_u] & fixed_mask[g.edge_v])
    bad = np.flatnonzero(outside & definitely_greater(grads, 0.0))
    violations = tuple(zip(bad.tolist(), grads[bad].tolist()))
    result = SolverResult(values, inf_norm_of(g, values), len(state.fixed), tuple(state.fixed))
    return DirectedLexResult(result, tuple(ambiguous), violations, fixed_mask)


def _resolve_intervals(g: Graph, v0: PartialAssignment, values: np.ndarray):
    """(values, ambiguous): assign the free vertices left in ``values``, in
    place. Constraints: along every remaining edge (x, y) the completion must
    satisfy v(x) <= v(y), so a free vertex x gets the interval [max fixed
    value with a path into x, min fixed value with a path out of x], and the
    value in it closest to the median of the labels of v0. The bounds are
    the high and the low envelope at alpha 0 of the fixed vertices. On a
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
    v_fixed = PartialAssignment(values)
    free = np.flatnonzero(~fixed)
    lo = comp_vhigh(g.with_edge_mask(low_edges), v_fixed, 0.0).values[free]
    hi = comp_vlow(g.with_edge_mask(high_edges), v_fixed, 0.0).values[free]
    lo_inf, hi_inf = np.isinf(lo), np.isinf(hi)
    values[free] = np.select(
        [lo_inf & hi_inf, lo_inf, hi_inf], [median, hi, lo], np.minimum(np.maximum(median, lo), hi)
    )
    ambiguous = list(map(AmbiguousVertex, free.tolist(), lo.tolist(), hi.tolist(), values[free].tolist()))
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

