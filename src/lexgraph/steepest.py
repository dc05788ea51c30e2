"""Randomized search for steepest terminal paths.

The star search finds the pair maximizing (v(t1) - v(t2)) / (d(t1) + d(t2))
by random pivoting: compute the pivot's best partner, then keep only
terminals that can still beat that gradient (an envelope threshold test) and
recurse. Expected linear time, never wrong: ties and degenerate cases fall
back to exhaustive scans.

A vertex-steepest path joins two distinct terminals. ``_sample_split`` is
the one step of the pressure descent, shared by ``steepest_path`` and the
solvers: sample, then keep the subgraph whose pressure exceeds the sampled
gradient if it slopes down (``_slope_tol``), else that tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    Graph,
    NoTerminalPathError,
    PartialAssignment,
    TerminalPath,
    definitely_greater,
    single_source_distances,
)
from .envelopes import PressureSubgraph, high_pressure_subgraph, pressure_exceeds

_BRUTE_PAIRS = 1024


@dataclass(frozen=True)
class StarInstance:
    """Terminals of a star graph: per-terminal value and distance to the center."""

    values: np.ndarray
    dists: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "StarInstance":
        values = np.array([p[0] for p in pairs], dtype=np.float64)
        dists = np.array([p[1] for p in pairs], dtype=np.float64)
        if np.any(dists <= 0) or not np.all(np.isfinite(dists)):
            raise ValueError("star distances must be positive and finite")
        return cls(values, dists)

    def __len__(self) -> int:
        return int(self.values.shape[0])


def _brute_pair(va, da, ia, vb, db, ib, tol):
    """Exhaustive max over id-distinct pairs with (id_a, id_b) tie-break."""
    grads = (va[:, None] - vb[None, :]) / (da[:, None] + db[None, :])
    same = ia[:, None] == ib[None, :]
    grads = np.where(same, -np.inf, grads)
    best = grads.max()
    if not np.isfinite(best):
        return None
    scale = max(1.0, abs(best))
    cand_a, cand_b = np.nonzero(grads >= best - tol * scale)
    order = np.lexsort((ib[cand_b], ia[cand_a]))
    a, b = int(cand_a[order[0]]), int(cand_b[order[0]])
    return a, b, float(grads[a, b])


def _two_sided_star(va, da, ia, vb, db, ib, rng, tol):
    """Maximize (va[a] - vb[b]) / (da[a] + db[b]) over pairs with ia[a] != ib[b].

    Returns (index into side A, index into side B, gradient) or None when no
    id-distinct pair exists. Side ids must be unique within each side.
    """
    nA, nB = va.shape[0], vb.shape[0]
    if nA == 0 or nB == 0:
        return None
    A = np.arange(nA)
    B = np.arange(nB)
    pos_a = {int(t): i for i, t in enumerate(ia)}
    pos_b = {int(t): i for i, t in enumerate(ib)}
    alpha = -np.inf
    rounds_cap = 4 * int(math.ceil(math.log2(nA + nB + 2))) + 32

    for _ in range(rounds_cap):
        if A.size * B.size <= _BRUTE_PAIRS:
            hit = _brute_pair(va[A], da[A], ia[A], vb[B], db[B], ib[B], tol)
            if hit is not None and hit[2] > alpha:
                alpha = hit[2]
            break
        k = int(rng.integers(A.size + B.size))
        pid = int(ia[A[k]]) if k < A.size else int(ib[B[k - A.size]])
        # pivot pressure: best gradient over pairs that involve the pivot id
        p_alpha = -np.inf
        if pid in pos_a:
            i = pos_a[pid]
            mask = ib[B] != pid
            if mask.any():
                cand = B[mask]
                p_alpha = max(p_alpha, float(((va[i] - vb[cand]) / (da[i] + db[cand])).max()))
        if pid in pos_b:
            j = pos_b[pid]
            mask = ia[A] != pid
            if mask.any():
                cand = A[mask]
                p_alpha = max(p_alpha, float(((va[cand] - vb[j]) / (da[cand] + db[j])).max()))
        alpha = max(alpha, p_alpha)
        if not np.isfinite(alpha):
            continue  # pivot had no usable partner; resample
        # keep only terminals whose pressure can still exceed alpha
        lhs = va[A] - alpha * da[A]
        rhs = vb[B] + alpha * db[B]
        lo = rhs.min()
        hi = lhs.max()
        A = A[definitely_greater(lhs, lo, tol)]
        B = B[definitely_greater(hi, rhs, tol)]
        if A.size == 0 or B.size == 0:
            break
    else:
        # iteration cap: settle the remainder exhaustively
        hit = _brute_pair(va[A], da[A], ia[A], vb[B], db[B], ib[B], tol)
        if hit is not None and hit[2] > alpha:
            alpha = hit[2]

    if not np.isfinite(alpha):
        return None
    # deterministic tie-break over the full sides at the final gradient
    lhs = va - alpha * da
    rhs = vb + alpha * db
    hi, lo = lhs.max(), rhs.min()
    a_star = np.flatnonzero(lhs >= hi - tol * np.maximum(1.0, np.maximum(np.abs(lhs), abs(hi))))
    b_star = np.flatnonzero(rhs <= lo + tol * np.maximum(1.0, np.maximum(np.abs(rhs), abs(lo))))
    a_star = a_star[np.argsort(ia[a_star])]
    b_star = b_star[np.argsort(ib[b_star])]
    for a in a_star:
        for b in b_star:
            if ia[a] != ib[b]:
                return int(a), int(b), float((va[a] - vb[b]) / (da[a] + db[b]))
    return None


def star_steepest_path(inst: StarInstance, seed: int = 0, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """Indices (t1, t2) maximizing (v(t1) - v(t2)) / (d(t1) + d(t2)).

    Random pivot plus pruning; among gradient ties the pair with the smallest
    (t1, t2) indices wins.
    """
    if len(inst) < 2:
        raise ValueError("star search needs at least 2 terminals")
    ids = np.arange(len(inst), dtype=np.int64)
    rng = np.random.default_rng(seed)
    hit = _two_sided_star(inst.values, inst.dists, ids, inst.values, inst.dists, ids, rng, tol)
    assert hit is not None
    return hit[0], hit[1]


def star_gradient(inst: StarInstance, pair: tuple[int, int]) -> float:
    i, j = pair
    return float((inst.values[i] - inst.values[j]) / (inst.dists[i] + inst.dists[j]))


def _chain(parent: np.ndarray, v: int) -> list[int]:
    """Walk parent pointers from v to the Dijkstra root (inclusive)."""
    out = [int(v)]
    while parent[out[-1]] >= 0:
        out.append(int(parent[out[-1]]))
    return out


def _vertex_steepest(
    g: Graph, v0: PartialAssignment, x: int, rng, tol: float
) -> Optional[TerminalPath]:
    x = int(x)
    terminals = v0.terminals()
    if terminals.size == 0:
        return None
    vals = v0.values
    dist_out, par_out = single_source_distances(g, x, with_parents=True)
    if g.directed:
        dist_in, par_in = single_source_distances(g, x, reverse=True, with_parents=True)
    else:
        dist_in, par_in = dist_out, par_out

    if v0.is_terminal(x):
        others = terminals[terminals != x]
        best = None  # (grad, terminal, starts_at_x)
        for starts in (True, False):
            d = dist_out if starts else dist_in
            reach = others[np.isfinite(d[others]) & (d[others] > 0)]
            if reach.size == 0:
                continue
            grads = (vals[x] - vals[reach]) / d[reach] if starts else (vals[reach] - vals[x]) / d[reach]
            top = grads.max()
            scale = max(1.0, abs(top))
            tied = reach[grads >= top - tol * scale]
            t = int(tied.min())
            g_exact = float((vals[x] - vals[t]) / d[t]) if starts else float((vals[t] - vals[x]) / d[t])
            if best is None or g_exact > best[0] + tol * max(1.0, abs(g_exact), abs(best[0])) or (
                abs(g_exact - best[0]) <= tol * max(1.0, abs(g_exact), abs(best[0])) and t < best[1]
            ):
                best = (g_exact, t, starts)
        if best is None:
            return None
        grad, t, starts = best
        if starts:
            verts = list(reversed(_chain(par_out, t)))  # x .. t
            length = float(dist_out[t])
        else:
            verts = _chain(par_in, t)  # t .. x (reverse-tree chain is already forward)
            length = float(dist_in[t])
        return TerminalPath(tuple(verts), length, grad)

    up = terminals[np.isfinite(dist_in[terminals])]
    down = terminals[np.isfinite(dist_out[terminals])]
    if up.size == 0 or down.size == 0:
        return None
    hit = _two_sided_star(vals[up], dist_in[up], up, vals[down], dist_out[down], down, rng, tol)
    if hit is None:
        return None
    t1, t2 = int(up[hit[0]]), int(down[hit[1]])
    verts = _chain(par_in, t1) + list(reversed(_chain(par_out, t2)))[1:]
    length = float(dist_in[t1] + dist_out[t2])
    return TerminalPath(tuple(verts), length, float((vals[t1] - vals[t2]) / length))


def vertex_steepest_path(
    g: Graph, v0: PartialAssignment, x: int, seed: int = 0, tol: float = DEFAULT_TOL
) -> TerminalPath:
    """Steepest terminal path through x; its gradient equals the pressure of
    x. NoTerminalPathError if no path between two distinct terminals runs
    through x, ValueError if x is not a vertex."""
    rng = np.random.default_rng(seed)
    path = _vertex_steepest(g, v0, x, rng, tol)
    if path is None:
        raise NoTerminalPathError(f"no terminal path passes through vertex {x}")
    return path


def _steepest_through(g: Graph, v0: PartialAssignment, xs, rng, tol: float) -> Optional[TerminalPath]:
    """The steepest of the vertex-steepest paths through the vertices xs, the
    first on ties; None if no terminal path passes through any of them."""
    best = None
    for x in xs:
        path = _vertex_steepest(g, v0, x, rng, tol)
        if path is not None and (best is None or path.gradient > best.gradient):
            best = path
    return best


def _slope_tol(g: Graph, tol: float) -> float:
    """A path slopes down if its gradient is definitely_greater than 0 at this
    tolerance, which floors every split threshold: 0 on an undirected graph,
    whose lex-minimizer interpolates every path of positive gradient; tol on
    a directed one, whose intervals take the paths within tol of flat."""
    return tol if g.directed else 0.0


def _slopes(g: Graph, path: Optional[TerminalPath], tol: float) -> bool:
    return path is not None and bool(definitely_greater(path.gradient, 0.0, _slope_tol(g, tol)))


def _nearly_flat_path(g: Graph, v0: PartialAssignment, rng) -> Optional[TerminalPath]:
    """On an undirected graph, a path of positive gradient with a drop too
    small for the pressure test at tol: the steepest through the first free
    vertex whose envelopes at 0, which carry the labels exactly, differ, by a
    search at tol 0. None if there is none, or if g is directed."""
    if g.directed:
        return None
    xs = np.flatnonzero(pressure_exceeds(g, v0, 0.0, tol=0.0) & ~v0.terminal_mask())
    path = _vertex_steepest(g, v0, int(xs[0]), rng, 0.0) if xs.size else None
    return path if _slopes(g, path, 0.0) else None


def _sample_split(g: Graph, v0: PartialAssignment, rng, tol: float) -> tuple[Optional[TerminalPath], PressureSubgraph]:
    """One step of the pressure descent on g: the best of the vertex-steepest
    paths through the ends of a random edge and a random vertex (None if
    none joins two distinct terminals), and the subgraph whose pressure
    exceeds its gradient if it slopes down, else ``_slope_tol``, so that
    every split component holds a sloped path. NoTerminalPathError if g has
    no edge."""
    if g.m == 0:
        raise NoTerminalPathError("no edge left to sample a terminal path")
    eid = int(rng.integers(g.m))
    x3 = int(rng.integers(g.n))
    best = _steepest_through(g, v0, dict.fromkeys((int(g.edge_u[eid]), int(g.edge_v[eid]), x3)), rng, tol)
    threshold = best.gradient if _slopes(g, best, tol) else _slope_tol(g, tol)
    return best, high_pressure_subgraph(g, v0, threshold, tol=tol)


def steepest_path(
    g: Graph,
    v0: PartialAssignment,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> TerminalPath:
    """Steepest free terminal path of a well-posed instance with no
    terminal-terminal edges and at least one free vertex.

    Repeat ``_sample_split`` on the subgraph it leaves until that subgraph
    has no edge, and return the last sampled path. When no path slopes down,
    that path may not be the maximizer, but does not slope down either; if
    the last sample found no path between two distinct terminals,
    NoTerminalPathError is raised instead. Depth is capped; on breach an
    exhaustive scan of every vertex-steepest path takes over.
    """
    tmask = v0.terminal_mask()
    if tmask.all():
        raise ValueError("instance has no free vertices")
    if g.m and bool((tmask[g.edge_u] & tmask[g.edge_v]).any()):
        raise ValueError("terminal-terminal edges must be removed before the search")
    rng = np.random.default_rng(seed)
    cap = int(8 * math.log2(max(g.m, 2)) + 16)
    orig = np.arange(g.n, dtype=np.int64)
    for _ in range(cap + 1):
        best, hp = _sample_split(g, v0, rng, tol)
        if hp.graph.m == 0:
            break
        orig = orig[hp.vertices]
        v0 = PartialAssignment(v0.values[hp.vertices])
        g = hp.graph
    else:
        best = _steepest_through(g, v0, range(g.n), rng, tol)
    if best is None:
        raise NoTerminalPathError("no terminal path found")
    return TerminalPath(tuple(int(orig[v]) for v in best.vertices), best.length, best.gradient)
