"""Deterministic search for steepest terminal paths.

Every search here finds a path of positive gradient, or none. The star
search finds the pair maximizing (v(t1) - v(t2)) / (d(t1) + d(t2)) by
Dinkelbach's parametric iteration from 0: at gradient lambda take the best
pair for v(t1) - lambda d(t1) - v(t2) - lambda d(t2), move lambda to its
gradient, and stop when lambda no longer rises or that pair is one
terminal twice. The maximum is the gradient it returns; a tie-break at the
tolerance only picks the path. A vertex-steepest path joins two distinct
terminals through one vertex x, by a star search on the distances to and
from it, whose rows, in both orientations on a digraph, come from one
kernel call for the few vertices searched at once; neither search draws a
random number. A terminal x sits on both of its sides at distance 0.

``_sample_split`` is the one step of the pressure descent, shared by
``steepest_path`` and the solvers, and its random edge and vertex are the
only random draws here: sample, then keep the subgraph whose pressure
exceeds the sampled gradient if it slopes down (``_slope_tol``), else that
tolerance. The pressure test and the star and vertex searches compare at
``core.DEFAULT_TOL``, except in ``_nearly_flat_path``, which compares at 0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    Graph,
    LexgraphError,
    NoTerminalPathError,
    PartialAssignment,
    TerminalPath,
    _dijkstra,
    definitely_greater,
    single_source_distances,
)
from .envelopes import PressureSubgraph, high_pressure_subgraph, pressure_exceeds


def _ties(x, ids, tol):
    """Indices of the entries of x within tol of its maximum, by increasing id."""
    near = np.flatnonzero(~definitely_greater(x.max(), x, tol))
    return near[np.argsort(ids[near])]


def _best_pair(lhs, ia, rhs, ib, tol):
    """The pair (a, b) with ia[a] != ib[b] of smallest (ia[a], ib[b]) among
    those whose lhs[a] and rhs[b] are each within tol of their side's best;
    None if there is no such pair."""
    a_star, b_star = _ties(lhs, ia, tol), _ties(-rhs, ib, tol)
    for a in a_star:
        for b in b_star:
            if ia[a] != ib[b]:
                return int(a), int(b)
    return None


def _two_sided_star(va, da, ia, vb, db, ib, tol):
    """The steepest pair of positive gradient (va[a] - vb[b]) / (da[a] + db[b])
    with ia[a] != ib[b]: (index into side A, index into side B, gradient), or
    None if no id-distinct pair slopes down.

    Precondition: ids are unique within each side, and an id on both sides
    carries one value, so a pair of one id has gradient 0. Dinkelbach's
    iteration from lambda 0: the best pair for (va - lambda da) - (vb +
    lambda db) is the argmax and the argmin, whose gradient lies above
    lambda unless lambda is the maximum, so lambda rises strictly over a
    finite set of pairs. A clash of the two ends it too, as no pair then
    beats lambda: at 0 nothing slopes, above 0 lambda is the maximum. That
    maximum is the gradient returned, with the pair of smallest (ia, ib)
    within tol of it, or, should rounding leave none at a tol of 0, the
    pair that set it.
    """
    if va.size == 0 or vb.size == 0:
        return None
    alpha, best = 0.0, None
    while True:
        lhs, rhs = va - alpha * da, vb + alpha * db
        a, b = int(lhs.argmax()), int(rhs.argmin())
        if ia[a] == ib[b]:
            break
        grad = float((va[a] - vb[b]) / (da[a] + db[b]))
        if grad <= alpha:
            break
        alpha, best = grad, (a, b)
    if best is None:
        return None
    a, b = _best_pair(lhs, ia, rhs, ib, tol) or best
    return a, b, alpha


def _chain(parent: np.ndarray, v: int) -> list[int]:
    """Walk parent pointers from v to the Dijkstra root (inclusive)."""
    out = [int(v)]
    while parent[out[-1]] >= 0:
        out.append(int(parent[out[-1]]))
    return out


def _vertex_steepest(v0: PartialAssignment, tol: float, out, into) -> Optional[TerminalPath]:
    """The steepest terminal path through a vertex x, with the pressure of x
    as its gradient, from the (distance, parent) rows of the Dijkstras out
    of x and into x (the same rows on an undirected graph); None if none
    slopes down. A terminal x sits on both sides at distance 0, and a pair
    through it has the length-weighted mean of its halves' gradients, so it
    never beats the better half."""
    terminals, vals = v0.terminals(), v0.values
    (dist_out, par_out), (dist_in, par_in) = out, into
    up = terminals[np.isfinite(dist_in[terminals])]
    down = terminals[np.isfinite(dist_out[terminals])]
    hit = _two_sided_star(vals[up], dist_in[up], up, vals[down], dist_out[down], down, tol)
    if hit is None:
        return None
    t1, t2 = int(up[hit[0]]), int(down[hit[1]])
    verts = _chain(par_in, t1) + list(reversed(_chain(par_out, t2)))[1:]
    return TerminalPath(tuple(verts), float(dist_in[t1] + dist_out[t2]), hit[2])


def vertex_steepest_path(g: Graph, v0: PartialAssignment, x: int) -> TerminalPath:
    """Steepest terminal path through x; its gradient is the pressure of x,
    which can exceed the path's own by ``DEFAULT_TOL``, as a tie within it
    goes to the smaller terminal ids. NoTerminalPathError if no path of
    positive gradient runs through x, ValueError if x is not a vertex."""
    out = single_source_distances(g, x, with_parents=True)
    into = single_source_distances(g, x, reverse=True, with_parents=True) if g.directed else out
    path = _vertex_steepest(v0, DEFAULT_TOL, out, into)
    if path is None:
        raise NoTerminalPathError(f"no sloped terminal path passes through vertex {x}")
    return path


def _steepest_through(g: Graph, v0: PartialAssignment, xs, tol: float = DEFAULT_TOL) -> Optional[TerminalPath]:
    """The steepest of the vertex-steepest paths through the few vertices xs,
    the first on ties; None if none slopes down. The distance rows out of
    every vertex of xs, and on a digraph the rows into them, come from one
    kernel call."""
    xs = [int(x) for x in xs]
    if not xs:
        return None
    sides = (False, True) if g.directed else (False,)
    dist, parent = _dijkstra(g, [([x], [0.0], reverse) for reverse in sides for x in xs], 1.0)
    into = len(xs) if g.directed else 0  # the first row into the vertices of xs
    best = None
    for i in range(len(xs)):
        path = _vertex_steepest(v0, tol, (dist[i], parent[i]), (dist[into + i], parent[into + i]))
        if path is not None and (best is None or path.gradient > best.gradient):
            best = path
    return best


def _slope_tol(g: Graph) -> float:
    """A path slopes down if its gradient is definitely_greater than 0 at this
    tolerance, which floors every split threshold: 0 on an undirected graph,
    whose lex-minimizer interpolates every path of positive gradient;
    DEFAULT_TOL on a directed one, whose intervals take the paths within it
    of flat."""
    return DEFAULT_TOL if g.directed else 0.0


def _slopes(g: Graph, path: Optional[TerminalPath]) -> bool:
    return path is not None and bool(definitely_greater(path.gradient, 0.0, _slope_tol(g)))


def _nearly_flat_path(g: Graph, v0: PartialAssignment) -> Optional[TerminalPath]:
    """On an undirected graph, a path of positive gradient with a drop too
    small for the pressure test at DEFAULT_TOL: the steepest through the
    first free vertex whose envelopes at 0, which carry the labels exactly,
    differ, by a search at tolerance 0. None if there is none, or if g is
    directed."""
    if g.directed:
        return None
    xs = np.flatnonzero(pressure_exceeds(g, v0, 0.0, tol=0.0) & ~v0.terminal_mask())
    return _steepest_through(g, v0, xs[:1], 0.0)


def _sample_split(g: Graph, v0: PartialAssignment, rng) -> tuple[Optional[TerminalPath], PressureSubgraph]:
    """One step of the pressure descent on g: the best of the vertex-steepest
    paths through the ends of a random edge and a random vertex (None if
    none has positive gradient), and the subgraph whose pressure exceeds its
    gradient, the largest pressure of the three, if it slopes down, else
    ``_slope_tol``, so that every split component holds a sloped path and
    none holds a sampled vertex. NoTerminalPathError if g has no edge."""
    if g.m == 0:
        raise NoTerminalPathError("no edge left to sample a terminal path")
    eid = int(rng.integers(g.m))
    x3 = int(rng.integers(g.n))
    best = _steepest_through(g, v0, dict.fromkeys((int(g.edge_u[eid]), int(g.edge_v[eid]), x3)))
    threshold = best.gradient if _slopes(g, best) else _slope_tol(g)
    return best, high_pressure_subgraph(g, v0, threshold)


def steepest_path(g: Graph, v0: PartialAssignment, seed: int = 0) -> TerminalPath:
    """Steepest free terminal path of a well-posed instance with no
    terminal-terminal edges and at least one free vertex.

    Repeat ``_sample_split`` on the subgraph it leaves until that subgraph
    has no edge, and return the last sampled path. Its gradient is the
    largest pressure, which can exceed the path's own gradient by
    ``DEFAULT_TOL``. On a digraph whose steepest gradient is within
    ``DEFAULT_TOL`` of 0, the path may not be the maximizer. If the last
    sample found no path of positive gradient, NoTerminalPathError is
    raised. No depth cap is needed: no sampled vertex has pressure above
    the threshold, so every round drops at least the sampled edge's ends,
    and the search ends, in O(log n) expected rounds. A round that keeps
    every vertex raises LexgraphError.
    """
    tmask = v0.terminal_mask()
    if tmask.all():
        raise ValueError("instance has no free vertices")
    if g.m and bool((tmask[g.edge_u] & tmask[g.edge_v]).any()):
        raise ValueError("terminal-terminal edges must be removed before the search")
    rng = np.random.default_rng(seed)
    orig = np.arange(g.n, dtype=np.int64)
    while True:
        best, hp = _sample_split(g, v0, rng)
        if hp.graph.m == 0:
            break
        if hp.graph.n == g.n:
            raise LexgraphError("a pressure split kept every vertex, so the search would not end")
        orig = orig[hp.vertices]
        v0 = PartialAssignment(v0.values[hp.vertices])
        g = hp.graph
    if best is None:
        raise NoTerminalPathError("no sloped terminal path found")
    return TerminalPath(tuple(int(orig[v]) for v in best.vertices), best.length, best.gradient)
