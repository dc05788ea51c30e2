"""Desk-scale brute-force references.

Everything here is deliberately independent of the production solvers: no
shared Dijkstra, matching, or envelope code. Size guards are hard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    Graph,
    PartialAssignment,
    SizeGuardError,
    TerminalPath,
    NoTerminalPathError,
)


def apsp_floyd_warshall(g: Graph, with_next: bool = False):
    """Exact all-pairs shortest path matrix (inf when unreachable).

    With ``with_next`` also returns the successor matrix nxt[i, j] = vertex
    after i on a shortest i->j path (-1 when unreachable).
    """
    if g.n > 500:
        raise SizeGuardError(f"apsp_floyd_warshall guard: n={g.n} > 500")
    n = g.n
    dist = np.full((n, n), np.inf, dtype=np.float64)
    np.fill_diagonal(dist, 0.0)
    nxt = np.full((n, n), -1, dtype=np.int64)
    nxt[np.arange(n), np.arange(n)] = np.arange(n)
    for u, v, w in zip(g.edge_u, g.edge_v, g.edge_len):
        if w < dist[u, v]:
            dist[u, v] = w
            nxt[u, v] = v
        if not g.directed and w < dist[v, u]:
            dist[v, u] = w
            nxt[v, u] = u
    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        better = via < dist
        if better.any():
            dist = np.where(better, via, dist)
            nxt = np.where(better, nxt[:, k][:, None], nxt)
    if with_next:
        return dist, nxt
    return dist


def _walk(nxt: np.ndarray, s: int, t: int) -> list[int]:
    path = [s]
    x = s
    while x != t:
        x = int(nxt[x, t])
        if x < 0:
            raise NoTerminalPathError(f"no path {s} -> {t}")
        path.append(x)
    return path


def brute_steepest_path(g: Graph, v0: PartialAssignment) -> TerminalPath:
    """Steepest free terminal path by pair enumeration over all-pairs distances.

    Terminal-terminal edges are dropped first, so every returned path is
    fixable. Falls back to a flat terminal->free->terminal walk when no
    terminal pair is mutually reachable (single-terminal components).
    Deterministic: ties resolve to the smallest (start, end) pair.
    """
    if g.n > 200:
        raise SizeGuardError(f"brute_steepest_path guard: n={g.n} > 200")
    tmask = v0.terminal_mask()
    keep = ~(tmask[g.edge_u] & tmask[g.edge_v])
    pruned = g.with_edge_mask(keep)
    dist, nxt = apsp_floyd_warshall(pruned, with_next=True)
    terminals = v0.terminals()
    best = None  # (gradient, s, t)
    for s in terminals:
        for t in terminals:
            if s == t:
                continue
            d = dist[s, t]
            if not np.isfinite(d) or d <= 0:
                continue
            grad = (v0.values[s] - v0.values[t]) / d
            if best is None or grad > best[0]:
                best = (float(grad), int(s), int(t))
    if best is not None and (g.directed or best[0] >= 0.0):
        grad, s, t = best
        return TerminalPath(tuple(_walk(nxt, s, t)), float(dist[s, t]), grad)
    # all-pairs unreachable (or directed all-negative): flat walk t -> x -> t
    free = np.flatnonzero(~tmask)
    fallback = None  # (t, x)
    for t in terminals:
        for x in free:
            fwd, back = dist[t, x], dist[x, t]
            if np.isfinite(fwd) and np.isfinite(back):
                cand = (int(t), int(x))
                if fallback is None or cand < fallback:
                    fallback = cand
    if fallback is None:
        if best is not None:  # directed, only negative-gradient paths exist
            grad, s, t = best
            return TerminalPath(tuple(_walk(nxt, s, t)), float(dist[s, t]), grad)
        raise NoTerminalPathError("no terminal path exists")
    t, x = fallback
    walk = _walk(nxt, t, x) + _walk(nxt, x, t)[1:]
    return TerminalPath(tuple(walk), float(dist[t, x] + dist[x, t]), 0.0)


def brute_lex_min(g: Graph, v0: PartialAssignment) -> np.ndarray:
    """Reference lex-minimizer: repeatedly fix a brute-force steepest path."""
    if g.n > 60:
        raise SizeGuardError(f"brute_lex_min guard: n={g.n} > 60")
    values = v0.values.copy()
    while np.isnan(values).any():
        cur = PartialAssignment(values)
        path = brute_steepest_path(g, cur)
        run = 0.0
        for a, b in zip(path.vertices, path.vertices[1:]):
            run += g.edge_len[g.edge_ids(a, b)]
            if np.isnan(values[b]):
                values[b] = values[path.vertices[0]] - path.gradient * run
    return values


def brute_min_vc(n: int, arcs: set[tuple[int, int]] | frozenset[tuple[int, int]]) -> frozenset[int]:
    """Exhaustive minimum vertex cover (edges taken undirected), smallest first."""
    if n > 20:
        raise SizeGuardError(f"brute_min_vc guard: n={n} > 20")
    arcs = list(arcs)
    if not arcs:
        return frozenset()
    for size in range(0, n + 1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in arcs):
                return frozenset(chosen)
    raise AssertionError("unreachable: full vertex set always covers")


def brute_outlier(g: Graph, v0: PartialAssignment, k: int) -> tuple[float, frozenset[int]]:
    """Best achievable max terminal-pair gradient when up to k terminals may be
    dropped; enumerates every subset. Returns (alpha, dropped terminals)."""
    terminals = v0.terminals()
    if terminals.shape[0] > 14:
        raise SizeGuardError(f"brute_outlier guard: |T|={terminals.shape[0]} > 14")
    if k > 4:
        raise SizeGuardError(f"brute_outlier guard: k={k} > 4")
    dist = apsp_floyd_warshall(g)
    tvals = v0.values[terminals]
    nt = terminals.shape[0]
    grads = np.full((nt, nt), -np.inf)
    for i in range(nt):
        for j in range(nt):
            if i == j:
                continue
            d = dist[terminals[i], terminals[j]]
            if np.isfinite(d) and d > 0:
                grads[i, j] = (tvals[i] - tvals[j]) / d
    best: tuple[float, tuple[int, ...]] | None = None
    for size in range(0, min(k, nt) + 1):
        for drop in combinations(range(nt), size):
            keep = np.ones(nt, dtype=bool)
            keep[list(drop)] = False
            sub = grads[np.ix_(keep, keep)]
            alpha = float(max(sub.max(initial=-np.inf), 0.0))
            key = (alpha, len(drop), drop)
            if best is None or key < (best[0], len(best[1]), best[1]):
                best = (alpha, drop)
    alpha, drop = best
    return alpha, frozenset(int(terminals[i]) for i in drop)


@dataclass(frozen=True)
class PLaplacianResult:
    values: np.ndarray
    converged: bool
    sweeps: int


def p_laplacian_min(
    g: Graph,
    v0: PartialAssignment,
    p: int,
    iters: int = 20000,
    tol: float = 1e-10,
) -> PLaplacianResult:
    """Coordinate descent on sum_e len(e)^-p |v(x)-v(y)|^p over free vertices.

    Each one-dimensional subproblem is solved by bisection on the (monotone)
    derivative; the objective is convex, so the sweep limit is the only way
    to stop short of the optimum and the result carries a convergence flag.
    """
    if g.n > 30:
        raise SizeGuardError(f"p_laplacian_min guard: n={g.n} > 30")
    if g.directed:
        raise ValueError("the p-norm descent oracle is undirected")
    if p < 2 or p > 128 or p % 2:
        raise ValueError("p must be even with 2 <= p <= 128")
    values = v0.values.copy()
    free = np.flatnonzero(np.isnan(values))
    if free.size == 0:
        return PLaplacianResult(values, True, 0)
    # start free vertices at the terminal mean so the bracket below is sane
    values[free] = float(np.nanmean(v0.values)) if np.isfinite(np.nanmean(v0.values)) else 0.0
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_len.tolist()):
        adj[u].append((v, w))
        adj[v].append((u, w))

    def descend(x: int) -> float:
        vals = np.array([values[y] for y, _ in adj[x]])
        lens = np.array([w for _, w in adj[x]])
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo < 1e-300:
            return lo

        def dsign(z: float) -> float:
            grads = (z - vals) / lens
            scale = np.abs(grads).max()
            if scale == 0.0:
                return 0.0
            unit = grads / scale
            return float(np.sum(np.sign(unit) * np.abs(unit) ** (p - 1) / lens))

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dsign(mid) > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi)

    for sweep in range(1, iters + 1):
        delta = 0.0
        for x in free:
            new = descend(int(x))
            delta = max(delta, abs(new - values[x]))
            values[x] = new
        if delta < tol:
            return PLaplacianResult(values, True, sweep)
    return PLaplacianResult(values, False, iters)
