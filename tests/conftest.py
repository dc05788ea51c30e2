"""Shared instance generators. Everything is deterministic in the seed."""

from __future__ import annotations

import heapq
import math
from enum import Enum

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from lexgraph import (
    DEFAULT_TOL,
    Graph,
    GraphFormatError,
    NoTerminalPathError,
    PartialAssignment,
    TerminalPath,
    check_well_posed,
)
from lexgraph.core import definitely_greater, require_well_posed, sorted_distinct, terminal_gradient_matrix
from lexgraph.solvers import AmbiguousVertex, _fix_path_inplace, _sloped_steepest, _terminal_edge_mask


def reference_graph_arrays(n: int, edges, directed: bool = False):
    """(edge_u, edge_v, edge_len) of the per-edge dict loop that ``Graph``
    ran before its build was vectorized: check each (u, v, length) in input
    order (range, then integer ids, then self-loop, then length), orient
    undirected edges to (min, max), keep the minimum length of parallel
    edges and sort by (u, v).
    Raises the ``GraphFormatError`` of the first bad edge. A test reference
    only; the library never calls it."""
    dedup: dict[tuple[int, int], float] = {}
    for u, v, length in edges:
        u, v = float(u), float(v)
        ends = f"{int(u) if u.is_integer() else u!r},{int(v) if v.is_integer() else v!r}"
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({ends}) out of range for n={n}")
        if not (u.is_integer() and v.is_integer()):
            raise GraphFormatError(f"edge ({ends}) has a vertex id that is not an integer")
        u, v = int(u), int(v)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        length = float(length)
        if not np.isfinite(length) or length <= 0.0:
            raise GraphFormatError(f"edge ({u},{v}) has invalid length {length!r}")
        key = (u, v) if directed or u < v else (v, u)
        prev = dedup.get(key)
        if prev is None or length < prev:
            dedup[key] = length
    keys = sorted(dedup)
    return (
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([dedup[k] for k in keys], dtype=np.float64),
    )


def reference_edge_ids(g: Graph, u, v) -> list[int]:
    """Edge id of each pair (u[i], v[i]) from a dict over every edge, -1 where
    there is none: the lookup ``Graph`` kept before ``edge_ids`` searched its
    sorted keys. A test reference only; the library never calls it."""
    lookup: dict[tuple[int, int], int] = {}
    for i, (a, b) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist())):
        lookup[(a, b)] = i
        if not g.directed:
            lookup[(b, a)] = i
    return [lookup.get((a, b), -1) for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist())]


def reference_two_sided_star(va, da, ia, vb, db, ib, tol: float = DEFAULT_TOL, rows: int = 256):
    """(a, b, gradient) of the exhaustive scan the star search ran below its
    pivot loop: the largest (va[a] - vb[b]) / (da[a] + db[b]) over pairs with
    ia[a] != ib[b], and among the pairs within tol of it (scaled by the
    maximum, floored at 1) the one of smallest (ia[a], ib[b]); None if no
    pair is id-distinct. Scans ``rows`` rows of side A at a time, so memory
    stays bounded on large sides. A test reference only; the library never
    calls it."""

    def blocks():
        for lo in range(0, va.shape[0], rows):
            sl = slice(lo, lo + rows)
            grads = (va[sl, None] - vb[None, :]) / (da[sl, None] + db[None, :])
            yield lo, np.where(ia[sl, None] == ib[None, :], -np.inf, grads)

    best = max((float(grads.max()) for _, grads in blocks()), default=-np.inf)
    if not np.isfinite(best):
        return None
    hits = []
    for lo, grads in blocks():
        near = grads >= best - tol * max(1.0, abs(best))
        tied_rows = np.flatnonzero(near.any(axis=1))
        if tied_rows.size:
            r = int(tied_rows[np.argmin(ia[lo + tied_rows])])
            cols = np.flatnonzero(near[r])
            hits.append((lo + r, int(cols[np.argmin(ib[cols])])))
    a, b = min(hits, key=lambda p: (ia[p[0]], ib[p[1]]))
    return a, b, float((va[a] - vb[b]) / (da[a] + db[b]))


def reference_repair_pairs(pairs: np.ndarray, rng) -> bool:
    """The per-pair loop ``synth._repair_pairs`` ran before it marked bad
    pairs with array masks: swap away self-loops and repeats of an earlier
    pair, in pair order; True on success. A test reference only."""
    m = pairs.shape[0]
    for _ in range(60):
        seen: set[tuple[int, int]] = set()
        bad: list[int] = []
        for i in range(m):
            a, b = int(pairs[i, 0]), int(pairs[i, 1])
            key = (a, b) if a < b else (b, a)
            if a == b or key in seen:
                bad.append(i)
            else:
                seen.add(key)
        if not bad:
            return True
        for i in bad:
            j = int(rng.integers(m))
            pairs[i, 1], pairs[j, 1] = pairs[j, 1], pairs[i, 1]
    return False


def random_instance(
    seed: int,
    n_range: tuple[int, int] = (5, 30),
    max_extra_edges: int = 60,
    terminal_range: tuple[int, int] = (2, 8),
    value_range: tuple[float, float] = (-1.0, 1.0),
) -> tuple[Graph, PartialAssignment]:
    """Connected undirected instance: random spanning tree plus extra edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    order = rng.permutation(n)
    edges = []
    for i in range(1, n):
        j = int(rng.integers(i))
        edges.append((int(order[i]), int(order[j]), float(rng.uniform(0.2, 2.0))))
    for _ in range(int(rng.integers(0, max_extra_edges + 1))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.append((u, v, float(rng.uniform(0.2, 2.0))))
    g = Graph(n, edges)
    lo, hi = terminal_range
    nt = int(rng.integers(lo, min(hi, n) + 1))
    vals: list[float | None] = [None] * n
    for t in rng.choice(n, size=nt, replace=False):
        vals[int(t)] = float(rng.uniform(*value_range))
    return g, PartialAssignment(vals)


def random_directed_instance(
    seed: int,
    n_range: tuple[int, int] = (5, 20),
    terminal_range: tuple[int, int] = (2, 6),
) -> tuple[Graph, PartialAssignment]:
    """Well-posed directed instance; stranded free vertices get labeled."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    edges = {}
    for _ in range(3 * n):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = float(rng.uniform(0.2, 2.0))
    g = Graph(n, [(u, v, w) for (u, v), w in edges.items()], directed=True)
    nt = int(rng.integers(terminal_range[0], min(terminal_range[1], n) + 1))
    vals: list[float | None] = [None] * n
    for t in rng.choice(n, size=nt, replace=False):
        vals[int(t)] = float(rng.uniform(0.0, 1.0))
    v0 = PartialAssignment(vals)
    report = check_well_posed(g, v0)
    if not report.ok:
        for x in report.stranded_vertices:
            vals[x] = float(rng.uniform(0.0, 1.0))
        v0 = PartialAssignment(vals)
    return g, v0


def reference_directed_fixing(g: Graph, v0: PartialAssignment, seed: int = 0):
    """(values, fixed paths) of the whole-graph directed fixing loop that
    ``directed_lex_min`` ran before its pressure descent: one steepest path
    of the whole graph per round, fixed while one slopes down (gradient
    positive beyond tolerance). A test reference only; the library never
    calls it."""
    rng = np.random.default_rng(seed)
    values = v0.values.copy()
    fixed = []
    while np.isnan(values).any():
        work = g.with_edge_mask(~_terminal_edge_mask(g, values))
        path = _sloped_steepest(work, PartialAssignment(values), seed=int(rng.integers(2**63)))
        if path is None:
            break
        fixed.append((path, _fix_path_inplace(values, path, g.path_lengths(path.vertices))))
    return values, fixed


def reference_resolve_intervals(g: Graph, values: np.ndarray, median: float):
    """(values, ambiguous) of the interval pass that ``directed_lex_min`` ran
    before its bounds came from shortest-path envelopes: condense the strongly
    connected components of the free vertices into a DAG, seed each with
    [max upstream fixed value, min downstream fixed value], propagate the
    bounds in topological order, and clamp the median into them. A test
    reference only; the library never calls it. Fills ``values`` in place."""
    free = np.flatnonzero(np.isnan(values))
    local = np.full(g.n, -1, dtype=np.int64)
    local[free] = np.arange(free.size)
    sub, _ = g.induced_subgraph(free)
    adj = csr_matrix((sub.edge_len, (sub.edge_u, sub.edge_v)), shape=(sub.n, sub.n))
    n_comp, comp = connected_components(adj, directed=True, connection="strong")

    lower = np.full(n_comp, -np.inf)
    upper = np.full(n_comp, np.inf)
    succ: list[set[int]] = [set() for _ in range(n_comp)]
    pred: list[set[int]] = [set() for _ in range(n_comp)]
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
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

    indeg = [len(p) for p in pred]
    queue = [c for c in range(n_comp) if indeg[c] == 0]
    order = []
    while queue:
        c = queue.pop()
        order.append(c)
        for s in succ[c]:
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    assert len(order) == n_comp, "free-component condensation is not acyclic"
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


def heap_dijkstra(g: Graph, runs, scale: float):
    """Reference for ``core._dijkstra``: a textbook heap Dijkstra per run
    (sources, start, reverse) that adds start + scale * length edge by edge,
    with no shift of the start values, along the edges or, if ``reverse`` is
    set on a directed graph, against them. Returns (value, parent), one row
    per run, in the kernel's conventions."""
    rows = []
    for sources, start, reverse in runs:
        u, v, w = g.edge_u.tolist(), g.edge_v.tolist(), g.edge_len.tolist()
        if reverse and g.directed:
            u, v = v, u
        adjacent = [[] for _ in range(g.n)]
        for x, y, length in zip(u, v, w) if g.directed else zip(u + v, v + u, w + w):
            adjacent[x].append((y, length))
        dist = [math.inf] * g.n
        parent = [-1] * g.n
        done = [False] * g.n
        heap = []
        for s, d in zip(np.asarray(sources).tolist(), np.asarray(start, dtype=np.float64).tolist()):
            if d < dist[s]:
                dist[s] = d
                heap.append((d, s))
        heapq.heapify(heap)
        while heap:
            d, x = heapq.heappop(heap)
            if done[x]:
                continue
            done[x] = True
            for y, length in adjacent[x]:
                nd = d + float(scale) * length
                if nd < dist[y]:
                    dist[y] = nd
                    parent[y] = x
                    heapq.heappush(heap, (nd, y))
        rows.append((dist, parent))
    return np.array([r[0] for r in rows], dtype=np.float64), np.array([r[1] for r in rows], dtype=np.int64)


def random_dag(seed: int, n_range: tuple[int, int] = (2, 14), density: float = 0.3):
    """(n, arcs) of a random DAG via a random topological order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    perm = rng.permutation(n)
    arcs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                arcs.add((int(perm[i]), int(perm[j])))
    return n, arcs


def transitive_closure(n: int, arcs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in arcs:
        adj[u].append(v)
    out = set()
    for s in range(n):
        stack = list(adj[s])
        seen = set()
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            stack.extend(adj[w])
        out |= {(s, w) for w in seen}
    return out


def arc_matrix(n: int, arcs) -> np.ndarray:
    """Boolean n x n adjacency of the arcs (u, v)."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in arcs:
        adj[u, v] = True
    return adj


def is_acyclic(adj: np.ndarray) -> bool:
    """The boolean adjacency has no directed cycle and no self-loop."""
    n_strong, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
    return n_strong == adj.shape[0] and not adj.diagonal().any()


def is_transitively_closed(adj: np.ndarray) -> bool:
    """Every two-step walk u -> w -> v with u != v of the boolean adjacency
    has its arc u -> v."""
    two_step = (adj.astype(np.int64) @ adj.astype(np.int64)) > 0
    np.fill_diagonal(two_step, False)
    return not (two_step & ~adj).any()


class LexOrder(Enum):
    LESS = -1
    EQUAL = 0  # equal as multisets of absolute values
    GREATER = 1


def lex_compare(a, b, tol: float = DEFAULT_TOL) -> LexOrder:
    """Compare two gradient vectors in the lexicographic order on sorted |values|.

    Entries within tol count as equal, relative to magnitudes above 1 and
    absolute below 1; EQUAL means the sorted absolute values coincide as
    multisets.
    """
    a = np.abs(np.asarray(a, dtype=np.float64))
    b = np.abs(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"gradient vectors differ in length: {a.shape[0]} vs {b.shape[0]}")
    for x, y in zip(np.sort(a)[::-1], np.sort(b)[::-1]):
        if abs(x - y) <= tol * max(1.0, abs(x), abs(y)):
            continue
        return LexOrder.LESS if x < y else LexOrder.GREATER
    return LexOrder.EQUAL


def enumerate_terminal_gradients(g: Graph, v0: PartialAssignment, dedup_tol: float = 1e-12) -> np.ndarray:
    """Sorted deduplicated gradients (v0(s)-v0(t))/dist(s,t) over ordered terminal
    pairs with finite distance."""
    _, grad = terminal_gradient_matrix(g, v0)
    return sorted_distinct(grad[np.isfinite(grad)], dedup_tol)


def reference_outlier(g: Graph, v0: PartialAssignment, k: int, exact: bool = True):
    """``outlier_exact`` (or with ``exact`` off ``outlier_approx``) as it ran
    on the whole unbounded terminal gradient matrix, before the cut-off
    rounds: binary search over every distinct positive gradient, or the
    greedy over every kept pair. A test reference only; the library never
    calls it."""
    from lexgraph.l0reg import _complete, _min_cover

    require_well_posed(g, v0)
    terminals, grad = terminal_gradient_matrix(g, v0)
    if not exact:
        drop = np.zeros(terminals.shape[0], dtype=bool)
        rounds = 0
        while rounds < k and drop.size - drop.sum() >= 2:
            kept = np.flatnonzero(~drop)
            sub = grad[np.ix_(kept, kept)]
            i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
            if not definitely_greater(float(sub[i, j]), 0.0):
                break
            drop[kept[[i, j]]] = True
            rounds += 1
        return _complete(g, v0, terminals, grad, drop, rounds)
    candidates = sorted_distinct(np.concatenate([[0.0], grad[grad > 0]]))
    lo, hi = 0, len(candidates) - 1
    best_cover = _min_cover(definitely_greater(grad, candidates[hi]))
    evaluations = 1
    while lo < hi:
        mid = (lo + hi) // 2
        cover = _min_cover(definitely_greater(grad, candidates[mid]))
        evaluations += 1
        if cover.sum() <= k:
            hi = mid
            best_cover = cover
        else:
            lo = mid + 1
    return _complete(g, v0, terminals, grad, best_cover, evaluations, float(candidates[hi]))


def terminal_path(g: Graph, v0: PartialAssignment, vertices) -> TerminalPath:
    """The TerminalPath of a vertex walk between two terminals, its gradient
    (first - last) / length."""
    vertices = tuple(int(x) for x in vertices)
    if len(vertices) < 2:
        raise NoTerminalPathError("a terminal path needs at least two vertices")
    total = sum(g.path_lengths(vertices))
    return TerminalPath(vertices, total, (v0.values[vertices[0]] - v0.values[vertices[-1]]) / total)


@pytest.fixture
def path3():
    """Unit path 0-1-2 with labels 0 and 1 at the ends."""
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    return g, PartialAssignment([0.0, None, 1.0])
