"""Graph and label containers plus the gradient / lexicographic primitives.

Vertices are dense 0-based integers. Undirected edges are stored once in a
canonical (min, max) orientation; parallel edges collapse to the minimum
length and self-loops are rejected at build time. All containers are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

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


@np.errstate(invalid="ignore")
def definitely_greater(a, b, tol: float = DEFAULT_TOL):
    """a > b strictly, beyond the shared relative tolerance: the one test of
    "pressure exceeds alpha". Elementwise on arrays; never true where a or b
    is infinite or NaN."""
    return a - b > tol * np.maximum(np.maximum(abs(a), abs(b)), 1.0)


class Graph:
    """Weighted graph with positive finite edge lengths.

    ``edges`` is an iterable of (u, v, length) triples or an (m, 3) array.
    Validation is vectorized; the first bad edge in input order raises, for
    its first fault: out of range, self-loop, invalid length. The CSR index
    of each direction is built on first use and cached. ``edge_u``/``edge_v``/
    ``edge_len`` define the fixed edge order used by gradient vectors; it is
    sorted by (u, v), so the keys ``edge_u * n + edge_v`` that ``edge_ids``
    searches are sorted too.
    """

    __slots__ = ("n", "directed", "edge_u", "edge_v", "edge_len", "_csr_cache", "_edge_key")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]] | np.ndarray, directed: bool = False):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        rows = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.float64)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise GraphFormatError("edges must be (u, v, length) triples")
        ends, lengths = np.trunc(rows[:, :2]), rows[:, 2]
        bad = ~((ends >= 0) & (ends < n)).all(axis=1) | (ends[:, 0] == ends[:, 1])
        bad |= ~((lengths > 0.0) & (lengths < np.inf))
        if bad.any():  # name the first fault of the first bad edge
            u, v, length = rows[int(bad.argmax())].tolist()
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            raise GraphFormatError(f"edge ({u},{v}) has invalid length {length!r}")
        u, v = ends[:, 0].astype(np.int64), ends[:, 1].astype(np.int64)
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        # sort by (u, v) and keep each pair once, at its minimum length
        key = u * n + v
        order = np.argsort(key)
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        keep = order[starts]
        self._set_edges(n, u[keep], v[keep], np.minimum.reduceat(lengths[order], starts), directed)

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
        self._edge_key = None

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

    def edge_ids(self, u, v) -> np.ndarray:
        """Edge id of u->v (either orientation if undirected), elementwise on
        integer arrays or scalars; -1 where there is no edge."""
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        if not self.directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        if self._edge_key is None:
            # the sentinel n * n lies above every key, so a search stays in bounds
            self._edge_key = np.append(self.edge_u * self.n + self.edge_v, self.n * self.n)
        # an id out of range would alias a real key: (0, n + 2) is (1, 2)
        ok = (u >= 0) & (u < self.n) & (v >= 0) & (v < self.n)
        key = np.where(ok, u * self.n + v, -1)
        pos = np.searchsorted(self._edge_key, key)
        return np.where(self._edge_key[pos] == key, pos, -1)

    def path_lengths(self, vertices: Sequence[int]) -> list[float]:
        """Length of each step of a vertex walk, in walk order."""
        walk = np.asarray(vertices, dtype=np.int64)
        ids = self.edge_ids(walk[:-1], walk[1:])
        if (ids < 0).any():
            i = int(np.argmax(ids < 0))
            raise NoTerminalPathError(f"path step ({walk[i]},{walk[i + 1]}) is not an edge")
        return self.edge_len[ids].tolist()

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

    def __repr__(self) -> str:
        return f"PartialAssignment(n={self.n}, terminals={int(self.terminal_mask().sum())})"


@dataclass(frozen=True)
class TerminalPath:
    """Vertex walk between two terminals; gradient = (first - last) / length."""

    vertices: tuple[int, ...]
    length: float
    gradient: float

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]


def gradient(g: Graph, v: PartialAssignment, edge: int | tuple[int, int]) -> float:
    """Signed gradient (v(x) - v(y)) / len(x, y) on one edge of a complete assignment."""
    if isinstance(edge, tuple):
        x, y = edge
        eid = int(g.edge_ids(x, y))
        if eid < 0:
            raise GraphFormatError(f"no edge between {x} and {y}")
    else:
        eid = int(edge)
        x, y = int(g.edge_u[eid]), int(g.edge_v[eid])
    return (v.value(x) - v.value(y)) / float(g.edge_len[eid])


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


@dataclass(frozen=True)
class WellPosednessReport:
    ok: bool
    # undirected defects: connected components (tuples of vertices) with no terminal
    unlabeled_components: tuple[tuple[int, ...], ...] = ()
    # directed defects: free vertices on no terminal-to-terminal directed path
    stranded_vertices: tuple[int, ...] = ()

    def describe(self) -> str:
        """One line; each list of defects names at most 20 entries."""
        if self.ok:
            return "ok"
        parts = []
        if self.unlabeled_components:
            comps = _first_20(self.unlabeled_components, lambda c: "{" + ",".join(map(str, c)) + "}")
            parts.append(f"components without a terminal: {comps}")
        if self.stranded_vertices:
            parts.append(f"free vertices on no terminal-to-terminal path: [{_first_20(self.stranded_vertices, str)}]")
        return "; ".join(parts)


def _first_20(items: Sequence, fmt: Callable[..., str]) -> str:
    """The first 20 of ``items``, formatted and joined by commas, then how many more there are."""
    more = f", … and {len(items) - 20} more" if len(items) > 20 else ""
    return ", ".join(map(fmt, items[:20])) + more


def _component_labels(g: Graph) -> tuple[int, np.ndarray]:
    """(count, per-vertex component label) of the weakly connected components,
    numbered by their smallest vertex."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    indptr, indices, lengths = g._csr()
    mat = csr_matrix((lengths, indices, indptr), shape=(g.n, g.n))
    return connected_components(mat, directed=False)


def check_well_posed(g: Graph, v0: PartialAssignment) -> WellPosednessReport:
    """Undirected: every component holds a terminal. Directed: every free vertex
    lies on a terminal-to-terminal directed path. The report is the result."""
    if v0.n != g.n:
        raise GraphFormatError("assignment size does not match graph")
    terminals = v0.terminals()
    if g.directed:
        # reachability is a finite distance at scale 0, from and to the terminals
        ok = v0.terminal_mask()
        if terminals.size:
            start = np.zeros(terminals.shape[0])
            reach = [np.isfinite(_dijkstra(g, terminals, start, 0.0, rev)[0]) for rev in (False, True)]
            ok |= reach[0] & reach[1]
        bad = tuple(np.flatnonzero(~ok).tolist())
        return WellPosednessReport(not bad, stranded_vertices=bad)

    _, labels = _component_labels(g)
    labeled = np.zeros(labels.max(initial=-1) + 1, dtype=bool)
    labeled[labels[v0.terminal_mask()]] = True
    # the vertices of unlabeled components, grouped by component in one stable sort
    stranded = np.flatnonzero(~labeled[labels])
    stranded = stranded[np.argsort(labels[stranded], kind="stable")]
    cuts = np.flatnonzero(np.diff(labels[stranded])) + 1
    bad = tuple(tuple(part.tolist()) for part in np.split(stranded, cuts)) if stranded.size else ()
    return WellPosednessReport(not bad, unlabeled_components=bad)


def require_well_posed(g: Graph, v0: PartialAssignment) -> None:
    report = check_well_posed(g, v0)
    if not report.ok:
        raise NotWellPosedError(report)


def _dijkstra(
    g: Graph, sources: Sequence[int], start: Sequence[float], scale: float, reverse: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(value, parent) with value(x) = min over sources s of start[s] + scale * dist(s -> x).

    The one shortest-path kernel: scipy's Dijkstra from a super-source row
    appended to the cached CSR, whose edges to the sources carry the start
    offsets. Distances follow edge orientation (``reverse`` flips it on
    directed graphs). parent[x] is the predecessor on a minimizing path; it
    is -1 where the value is a source's own start and at unreached vertices,
    which get +inf. At scale 0 the offsets are the ranks of the distinct
    starts, so every reached vertex gets exactly the start of the source its
    parent chain leads to; at other scales they are the starts less their
    minimum, which can move a value by an ulp.
    """
    scale = float(scale)
    sources = np.asarray(sources, dtype=np.int32)
    start = np.asarray(start, dtype=np.float64)
    if scale == 0.0:
        starts, rank = np.unique(start, return_inverse=True)
        offsets = rank.astype(np.float64)
    else:
        base = float(start.min())
        offsets = start - base
    indptr, indices, lengths = g._csr(reverse)
    dist, pred = _scipy_dijkstra(
        np.concatenate([indptr, [indptr[-1] + sources.shape[0]]], dtype=np.int32),
        np.concatenate([indices, sources]),
        np.concatenate([scale * lengths, offsets]),
        g.n,
        predecessors=True,
    )
    dist = dist[: g.n]
    parent = pred[: g.n].astype(np.int64)
    parent[(parent == g.n) | (parent < 0)] = -1
    if scale == 0.0:
        reached = np.isfinite(dist)
        dist[reached] = starts[dist[reached].astype(np.int64)]
        return dist, parent
    return dist + base, parent


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
    A source outside [0, n) raises ValueError.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source vertex {source} out of range for n={g.n}")
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
    near = ~definitely_greater(u[1:], u[:-1], tol)
    last = 0.0
    for i in (np.flatnonzero(near) + 1).tolist():
        last = float(u[i - 1]) if keep[i - 1] else last
        keep[i] = definitely_greater(float(u[i]), last, tol)
    return u[keep]

