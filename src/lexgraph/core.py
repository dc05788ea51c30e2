"""Graph and label containers plus the gradient / lexicographic primitives.

Vertices are dense 0-based integers. Undirected edges are stored once in a
canonical (min, max) orientation; parallel edges collapse to the minimum
length and self-loops are rejected at build time. All containers are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

#: Free-vertex marker in label arrays.
FREE = float("nan")


class LexgraphError(Exception):
    pass


class GraphFormatError(LexgraphError):
    """Bad graph data: self loop, non-positive or non-finite length, bad ids."""


class MissingValueError(LexgraphError):
    """An operation needed a concrete value at a vertex that is free."""


class NotWellPosedError(LexgraphError):
    def __init__(self, report: "WellPosednessReport"):
        self.report = report
        super().__init__(f"instance is not well-posed: {report.describe()}")


class NoTerminalPathError(LexgraphError):
    """No terminal path exists through the requested vertex."""


class SizeGuardError(LexgraphError):
    """A desk-scale oracle was invoked beyond its size guard."""


def rel_scale(a: float, b: float) -> float:
    return max(1.0, abs(a), abs(b))


def values_close(a: float, b: float, tol: float = DEFAULT_TOL) -> bool:
    return abs(a - b) <= tol * rel_scale(a, b)


def definitely_greater(a: float, b: float, tol: float = DEFAULT_TOL) -> bool:
    """True iff a > b strictly, beyond the shared relative tolerance."""
    return a - b > tol * rel_scale(a, b)


class Graph:
    """Weighted graph with positive finite edge lengths.

    Parameters are validated eagerly; the CSR index and adjacency lists are
    built lazily and cached. ``edge_u``/``edge_v``/``edge_len`` define the
    fixed edge order used by gradient vectors; it is sorted by (u, v).
    """

    __slots__ = ("n", "directed", "edge_u", "edge_v", "edge_len", "_csr_cache", "_adj_cache", "_edge_lookup")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]], directed: bool = False):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        dedup: dict[tuple[int, int], float] = {}
        for u, v, length in edges:
            u = int(u)
            v = int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
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
        self._set_edges(
            n,
            np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.array([dedup[k] for k in keys], dtype=np.float64),
            directed,
        )

    @classmethod
    def _from_arrays(cls, n: int, u: np.ndarray, v: np.ndarray, lengths: np.ndarray, directed: bool) -> "Graph":
        """Graph on edge arrays that are already valid, deduplicated and sorted by (u, v)."""
        g = cls.__new__(cls)
        g._set_edges(n, u, v, lengths, directed)
        return g

    def _set_edges(self, n, u, v, lengths, directed) -> None:
        self.n = int(n)
        self.directed = bool(directed)
        self.edge_u, self.edge_v, self.edge_len = u, v, lengths
        for arr in (u, v, lengths):
            arr.setflags(write=False)
        # [out, in]; an undirected graph uses slot 0 only
        self._csr_cache = [None, None]
        self._adj_cache = [None, None]
        self._edge_lookup = None

    @property
    def m(self) -> int:
        return int(self.edge_u.shape[0])

    def _csr(self, reverse: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, lengths) of the out-edges, or of the in-edges with
        ``reverse`` on a directed graph; cached. Undirected edges appear in both
        rows. Index arrays are int32, so scipy takes them without a copy."""
        side = int(reverse and self.directed)
        if self._csr_cache[side] is None:
            u, v, w = self.edge_u, self.edge_v, self.edge_len
            if not self.directed:
                src, dst, w = np.concatenate([v, u]), np.concatenate([u, v]), np.concatenate([w, w])
            else:
                src, dst = (v, u) if side else (u, v)
            # A stable sort on src. Edges are sorted by (u, v), so every row
            # comes out sorted by dst, as scipy's coo->csr conversion leaves it.
            shift = src.shape[0].bit_length()
            order = np.sort((src << shift) | np.arange(src.shape[0])) & ((1 << shift) - 1)
            indptr = np.zeros(self.n + 1, dtype=np.int32)
            np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
            self._csr_cache[side] = (indptr, dst[order].astype(np.int32), w[order])
        return self._csr_cache[side]

    def adjacency_lists(self, reverse: bool = False) -> list[list[tuple[int, float]]]:
        """Plain-list adjacency (neighbor, length), cached; heap Dijkstra uses this."""
        side = int(reverse and self.directed)
        if self._adj_cache[side] is None:
            indptr, indices, lengths = self._csr(reverse)
            ptr, head, lens = indptr.tolist(), indices.tolist(), lengths.tolist()
            self._adj_cache[side] = [list(zip(head[a:b], lens[a:b])) for a, b in zip(ptr, ptr[1:])]
        return self._adj_cache[side]

    def edge_between(self, u: int, v: int) -> Optional[tuple[int, float]]:
        """(edge id, length) of edge u->v (any orientation if undirected)."""
        if self._edge_lookup is None:
            lookup: dict[tuple[int, int], tuple[int, float]] = {}
            for i in range(self.m):
                a, b, w = int(self.edge_u[i]), int(self.edge_v[i]), float(self.edge_len[i])
                lookup[(a, b)] = (i, w)
                if not self.directed:
                    lookup[(b, a)] = (i, w)
            self._edge_lookup = lookup
        return self._edge_lookup.get((int(u), int(v)))

    def with_edge_mask(self, mask: np.ndarray) -> "Graph":
        """Same vertex set, the edges where the boolean ``mask`` holds."""
        return Graph._from_arrays(self.n, self.edge_u[mask], self.edge_v[mask], self.edge_len[mask], self.directed)

    def induced_subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Subgraph on the given (sorted unique) vertex ids.

        Returns (subgraph, orig_ids) with orig_ids[local] = original id.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        local = np.full(self.n, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.shape[0], dtype=np.int64)
        keep = (local[self.edge_u] >= 0) & (local[self.edge_v] >= 0)
        sub = Graph._from_arrays(
            vertices.shape[0], local[self.edge_u[keep]], local[self.edge_v[keep]], self.edge_len[keep], self.directed
        )
        return sub, vertices

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


class PartialAssignment:
    """Per-vertex optional values; NaN marks a free vertex."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Optional[float]] | np.ndarray):
        if isinstance(values, np.ndarray):
            arr = values.astype(np.float64, copy=True)
        else:
            arr = np.array([FREE if v is None else float(v) for v in values], dtype=np.float64)
        if np.any(np.isinf(arr)):
            raise GraphFormatError("labels must be finite")
        arr.setflags(write=False)
        self.values = arr

    @classmethod
    def from_dict(cls, n: int, labels: dict[int, float]) -> "PartialAssignment":
        arr = np.full(n, FREE, dtype=np.float64)
        for x, val in labels.items():
            if not (0 <= int(x) < n):
                raise GraphFormatError(f"label on unknown vertex {x}")
            arr[int(x)] = float(val)
        return cls(arr)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def terminal_mask(self) -> np.ndarray:
        return ~np.isnan(self.values)

    def terminals(self) -> np.ndarray:
        return np.flatnonzero(self.terminal_mask())

    def is_terminal(self, x: int) -> bool:
        return not np.isnan(self.values[x])

    @property
    def is_complete(self) -> bool:
        return bool(self.terminal_mask().all())

    def value(self, x: int) -> float:
        v = float(self.values[x])
        if np.isnan(v):
            raise MissingValueError(f"vertex {x} is free")
        return v

    def restrict(self, vertices: np.ndarray) -> "PartialAssignment":
        return PartialAssignment(self.values[vertices])

    def __repr__(self) -> str:
        return f"PartialAssignment(n={self.n}, terminals={int(self.terminal_mask().sum())})"


@dataclass(frozen=True)
class TerminalPath:
    """Vertex walk between two terminals; gradient = (first - last) / length."""

    vertices: tuple[int, ...]
    length: float
    gradient: float

    @classmethod
    def build(cls, g: Graph, v0: PartialAssignment, vertices: Sequence[int]) -> "TerminalPath":
        vertices = tuple(int(x) for x in vertices)
        if len(vertices) < 2:
            raise NoTerminalPathError("a terminal path needs at least two vertices")
        total = 0.0
        for a, b in zip(vertices, vertices[1:]):
            hit = g.edge_between(a, b)
            if hit is None:
                raise NoTerminalPathError(f"no edge between {a} and {b}")
            total += hit[1]
        grad = (v0.value(vertices[0]) - v0.value(vertices[-1])) / total
        return cls(vertices, total, grad)

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]


class LexOrder(Enum):
    LESS = -1
    EQUAL = 0  # equal as multisets of absolute values
    GREATER = 1


def gradient(g: Graph, v: PartialAssignment, edge: int | tuple[int, int]) -> float:
    """Signed gradient (v(x) - v(y)) / len(x, y) on one edge of a complete assignment."""
    if isinstance(edge, tuple):
        x, y = edge
        hit = g.edge_between(x, y)
        if hit is None:
            raise GraphFormatError(f"no edge between {x} and {y}")
        length = hit[1]
    else:
        eid = int(edge)
        x, y = int(g.edge_u[eid]), int(g.edge_v[eid])
        length = float(g.edge_len[eid])
    return (v.value(x) - v.value(y)) / length


def gradient_vector(g: Graph, values: np.ndarray) -> np.ndarray:
    """Per-edge signed gradients in the graph's fixed edge order."""
    values = np.asarray(values, dtype=np.float64)
    return (values[g.edge_u] - values[g.edge_v]) / g.edge_len


def grad_plus_vector(g: Graph, values: np.ndarray) -> np.ndarray:
    """Directed gradients: positive part of the signed gradient along orientation."""
    return np.maximum(gradient_vector(g, values), 0.0)


def inf_norm_of(g: Graph, values: np.ndarray) -> float:
    """Max |gradient| (undirected) or max directed gradient (directed)."""
    if g.m == 0:
        return 0.0
    grads = gradient_vector(g, values)
    if g.directed:
        return float(max(grads.max(), 0.0))
    return float(np.abs(grads).max())


def lex_compare(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray, tol: float = DEFAULT_TOL) -> LexOrder:
    """Compare two gradient vectors in the lexicographic order on sorted |values|.

    Entries within the relative tolerance count as equal; EQUAL means the
    sorted absolute values coincide as multisets.
    """
    a = np.abs(np.asarray(a, dtype=np.float64))
    b = np.abs(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"gradient vectors differ in length: {a.shape[0]} vs {b.shape[0]}")
    a = np.sort(a)[::-1]
    b = np.sort(b)[::-1]
    for x, y in zip(a, b):
        if values_close(x, y, tol):
            continue
        return LexOrder.LESS if x < y else LexOrder.GREATER
    return LexOrder.EQUAL


@dataclass(frozen=True)
class WellPosednessReport:
    ok: bool
    # undirected defects: connected components (tuples of vertices) with no terminal
    unlabeled_components: tuple[tuple[int, ...], ...] = ()
    # directed defects: free vertices on no terminal-to-terminal directed path
    stranded_vertices: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        if self.unlabeled_components:
            comps = ", ".join("{" + ",".join(map(str, c)) + "}" for c in self.unlabeled_components)
            parts.append(f"components without a terminal: {comps}")
        if self.stranded_vertices:
            parts.append(f"free vertices on no terminal-to-terminal path: {list(self.stranded_vertices)}")
        return "; ".join(parts)


def _reachable_from(g: Graph, seeds: np.ndarray, reverse: bool) -> np.ndarray:
    """Boolean mask of vertices reachable from any seed along edge orientation."""
    indptr, head, _ = g._csr(reverse)
    seen = np.zeros(g.n, dtype=bool)
    stack = [int(s) for s in seeds]
    seen[seeds] = True
    while stack:
        x = stack.pop()
        for y in head[indptr[x]:indptr[x + 1]]:
            if not seen[y]:
                seen[y] = True
                stack.append(int(y))
    return seen


def _component_labels(g: Graph, strong: bool = False) -> tuple[int, np.ndarray]:
    """(count, per-vertex component label) of the weakly connected components,
    or of the strongly connected ones with ``strong``. Labels on undirected
    graphs number the components by their smallest vertex."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    indptr, indices, lengths = g._csr()
    mat = csr_matrix((lengths, indices, indptr), shape=(g.n, g.n))
    return connected_components(mat, directed=strong, connection="strong")


def check_well_posed(g: Graph, v0: PartialAssignment) -> WellPosednessReport:
    """Undirected: every component holds a terminal. Directed: every free vertex
    lies on a terminal-to-terminal directed path. The report is the result."""
    if v0.n != g.n:
        raise GraphFormatError("assignment size does not match graph")
    terminals = v0.terminals()
    if g.directed:
        if terminals.size == 0:
            stranded = tuple(range(g.n))
            return WellPosednessReport(False, stranded_vertices=stranded)
        from_t = _reachable_from(g, terminals, reverse=False)
        to_t = _reachable_from(g, terminals, reverse=True)
        free = ~v0.terminal_mask()
        bad = tuple(np.flatnonzero(free & ~(from_t & to_t)).tolist())
        return WellPosednessReport(not bad, stranded_vertices=bad)

    _, labels = _component_labels(g)
    labeled = np.zeros(labels.max(initial=-1) + 1, dtype=bool)
    labeled[labels[v0.terminal_mask()]] = True
    bad = tuple(tuple(np.flatnonzero(labels == c).tolist()) for c in np.flatnonzero(~labeled))
    return WellPosednessReport(not bad, unlabeled_components=bad)


def require_well_posed(g: Graph, v0: PartialAssignment) -> None:
    report = check_well_posed(g, v0)
    if not report.ok:
        raise NotWellPosedError(report)


#: Graphs with more vertices run Dijkstra in scipy; smaller ones on a Python
#: heap, whose per-call cost is lower on the tiny pressure components.
SCIPY_CUTOFF = 2048


def _dijkstra(
    g: Graph, sources: Sequence[int], start: Sequence[float], scale: float, reverse: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(value, parent) with value(x) = min over sources s of start[s] + scale * dist(s -> x).

    The one shortest-path kernel. Distances follow edge orientation
    (``reverse`` flips it on directed graphs). parent[x] is the predecessor
    on a minimizing path; it is -1 where the value is a source's own start
    and at unreached vertices, which get +inf. Heap ties break on vertex id,
    so parent trees are deterministic.
    """
    scale = float(scale)
    if g.n > SCIPY_CUTOFF:
        # one super-source row n whose edges carry the start offsets
        sources = np.asarray(sources, dtype=np.int32)
        start = np.asarray(start, dtype=np.float64)
        base = float(start.min())
        indptr, indices, lengths = g._csr(reverse)
        dist, pred = _scipy_dijkstra(
            np.concatenate([indptr, [indptr[-1] + sources.shape[0]]], dtype=np.int32),
            np.concatenate([indices, sources]),
            np.concatenate([scale * lengths, start - base]),
            g.n,
            predecessors=True,
        )
        parent = pred[: g.n].astype(np.int64)
        parent[(parent == g.n) | (parent < 0)] = -1
        return dist[: g.n] + base, parent

    adj = g.adjacency_lists(reverse)
    dist = [math.inf] * g.n
    parent = [-1] * g.n
    done = [False] * g.n
    heap = []
    for s, d in zip(np.asarray(sources).tolist(), np.asarray(start, dtype=np.float64).tolist()):
        dist[s] = d
        heap.append((d, s))
    heapq.heapify(heap)
    while heap:
        d, x = heapq.heappop(heap)
        if done[x]:
            continue
        done[x] = True
        for y, w in adj[x]:
            nd = d + scale * w
            if nd < dist[y]:
                dist[y] = nd
                parent[y] = x
                heapq.heappush(heap, (nd, y))
    return np.array(dist, dtype=np.float64), np.array(parent, dtype=np.int64)


def _scipy_dijkstra(indptr, indices, data, sources, predecessors: bool = False):
    """scipy's Dijkstra on raw CSR arrays of a square graph."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = indptr.shape[0] - 1
    mat = csr_matrix((data, indices, indptr), shape=(n, n))
    return dijkstra(mat, directed=True, indices=sources, return_predecessors=predecessors)


def single_source_distances(
    g: Graph, source: int, reverse: bool = False, with_parents: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Plain Dijkstra from one vertex (along orientation; reversed if asked).

    Unreachable vertices get +inf; parents are -1 at the source and there.
    """
    dist, parent = _dijkstra(g, [int(source)], [0.0], 1.0, reverse)
    if with_parents:
        return dist, parent
    return dist


#: Bytes of scipy distance rows that ``terminal_pair_distances`` holds at once.
PAIR_DISTANCE_BYTES = 32 << 20


def terminal_pair_distances(g: Graph, v0: PartialAssignment) -> tuple[np.ndarray, np.ndarray]:
    """(terminals, dist) with dist[i, j] = shortest distance terminal i -> terminal j.

    Paths may run through other terminals. scipy runs over chunks of
    terminals sized to ``PAIR_DISTANCE_BYTES``, so no |T| x n matrix is kept.
    """
    terminals = v0.terminals()
    dist = np.empty((terminals.shape[0], terminals.shape[0]))
    rows = max(1, PAIR_DISTANCE_BYTES // (8 * max(g.n, 1)))
    csr = g._csr()
    for a in range(0, terminals.shape[0], rows):
        dist[a : a + rows] = _scipy_dijkstra(*csr, terminals[a : a + rows])[:, terminals]
    return terminals, dist


def terminal_gradient_matrix(g: Graph, v0: PartialAssignment) -> tuple[np.ndarray, np.ndarray]:
    """(terminals, grad) with grad[i, j] = (v0(t_i) - v0(t_j)) / dist(t_i -> t_j),
    and -inf on the diagonal and where that distance is infinite or zero."""
    terminals, dist = terminal_pair_distances(g, v0)
    vals = v0.values[terminals]
    usable = np.isfinite(dist) & (dist > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.where(usable, (vals[:, None] - vals[None, :]) / dist, -np.inf)
    return terminals, grad


def sorted_distinct(values: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Sorted values, dropping each one within the relative ``tol`` of the last kept one.

    A value farther than that from the next smaller distinct value is farther
    still from the last kept one, so it is kept; the sequential test runs
    only inside runs of near-ties."""
    u = np.unique(values).astype(np.float64)
    keep = np.ones(u.shape[0], dtype=bool)
    near = np.diff(u) <= tol * np.maximum(1.0, np.maximum(np.abs(u[1:]), np.abs(u[:-1])))
    last = 0.0
    for i in (np.flatnonzero(near) + 1).tolist():
        last = float(u[i - 1]) if keep[i - 1] else last
        keep[i] = u[i] - last > tol * rel_scale(float(u[i]), last)
    return u[keep]


def enumerate_terminal_gradients(
    g: Graph, v0: PartialAssignment, dedup_tol: float = 1e-12
) -> np.ndarray:
    """Sorted deduplicated gradients (v0(s)-v0(t))/dist(s,t) over ordered terminal
    pairs with finite distance."""
    _, grad = terminal_gradient_matrix(g, v0)
    return sorted_distinct(grad[np.isfinite(grad)], dedup_tol)
