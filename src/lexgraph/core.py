"""Graph and label containers plus the gradient / lexicographic primitives.

Vertices are dense 0-based integers. Undirected edges are stored once in a
canonical (min, max) orientation; parallel edges collapse to the minimum
length and self-loops are rejected at build time. All containers are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
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


class NotWellPosedError(LexgraphError):
    def __init__(self, report: "WellPosednessReport"):
        self.report = report
        super().__init__(f"instance is not well-posed: {report.describe()}")


class NoTerminalPathError(LexgraphError):
    """No terminal path exists through the requested vertex."""


class SizeGuardError(LexgraphError):
    """A desk-scale oracle was invoked beyond its size guard."""


def definitely_greater(a, b, tol: float = DEFAULT_TOL):
    """a > b strictly, by more than tol * max(|a|, |b|, 1): the one test of
    "pressure exceeds alpha". The tolerance is relative for magnitudes above
    1 and absolute below 1, as the scale is floored at 1.0. Elementwise on
    arrays; never true where a or b is infinite or NaN.

    Only inf - inf and 0 * inf are invalid operations. Python floats never
    warn on them, so only other inputs pay for numpy's error-state context."""
    if type(a) is float and type(b) is float and type(tol) is float:
        return a - b > tol * max(abs(a), abs(b), 1.0)
    with np.errstate(invalid="ignore"):
        return a - b > tol * np.maximum(np.maximum(abs(a), abs(b)), 1.0)


class Graph:
    """Weighted graph with positive finite edge lengths.

    ``edges`` is an iterable of (u, v, length) triples or an (m, 3) array.
    Validation is vectorized; the first bad edge in input order raises, for
    its first fault: an end out of range, an end that is not an integer, a
    self-loop, an invalid length. The CSR index (``_csr``) is built on first
    use and cached. ``edge_u``/``edge_v``/``edge_len`` define the
    fixed edge order used by gradient vectors; it is sorted by (u, v), so
    the keys ``edge_u * n + edge_v`` that ``edge_ids`` searches are sorted
    too.
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
        ends, lengths = rows[:, :2], rows[:, 2]
        bad = ~((ends >= 0) & (ends < n) & (ends == np.trunc(ends))).all(axis=1) | (ends[:, 0] == ends[:, 1])
        bad |= ~((lengths > 0.0) & (lengths < np.inf))
        if bad.any():  # name the first fault of the first bad edge
            u, v, length = rows[int(bad.argmax())].tolist()
            pair = f"{int(u) if u.is_integer() else u!r},{int(v) if v.is_integer() else v!r}"
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({pair}) out of range for n={n}")
            if not (u.is_integer() and v.is_integer()):
                raise GraphFormatError(f"edge ({pair}) has a vertex id that is not an integer")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {int(u)}")
            raise GraphFormatError(f"edge ({pair}) has invalid length {length!r}")
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
        self._csr_cache = None
        self._edge_key = None

    @property
    def m(self) -> int:
        return int(self.edge_u.shape[0])

    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, lengths) of the graph's one CSR; cached. Undirected:
        n rows, each edge in both of its ends' rows. Directed: 2n rows, the
        out-edges of x in row x and its in-edges in row n + x, pointing at
        n + u, so a search from x follows the edges and one from n + x runs
        against them. Index arrays are int32, so scipy takes them without a
        copy."""
        if self._csr_cache is None:
            n, u, v, w = self.n, self.edge_u, self.edge_v, self.edge_len
            if self.directed:
                # the out-rows are the edges in their order; one stable sort on
                # v gives the in-rows, each sorted by u
                shift = v.shape[0].bit_length()
                order = np.sort((v << shift) | np.arange(v.shape[0])) & ((1 << shift) - 1)
                counts = np.concatenate([np.bincount(u, minlength=n), np.bincount(v, minlength=n)])
                indices, lengths = np.concatenate([v, u[order] + n]), np.concatenate([w, w[order]])
            else:
                # A stable sort on src. Edges are sorted by (u, v), so every row
                # comes out sorted by dst, as scipy's coo->csr conversion leaves it.
                src, dst = np.concatenate([v, u]), np.concatenate([u, v])
                shift = src.shape[0].bit_length()
                order = np.sort((src << shift) | np.arange(src.shape[0])) & ((1 << shift) - 1)
                counts = np.bincount(src, minlength=n)
                indices, lengths = dst[order], np.concatenate([w, w])[order]
            indptr = np.zeros(counts.shape[0] + 1, dtype=np.int32)
            np.cumsum(counts, out=indptr[1:])
            self._csr_cache = (indptr, indices.astype(np.int32), lengths)
        return self._csr_cache

    def _out_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows 0..n-1 of ``_csr``: the out-edges of a directed graph, all
        of an undirected one."""
        indptr, indices, lengths = self._csr()
        end = indptr[self.n]
        return indptr[: self.n + 1], indices[:end], lengths[:end]

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

    @property
    def is_complete(self) -> bool:
        return bool(self.terminal_mask().all())

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


def gradient_vector(g: Graph, values: np.ndarray) -> np.ndarray:
    """Per-edge signed gradients in the graph's fixed edge order."""
    values = np.asarray(values, dtype=np.float64)
    return (values[g.edge_u] - values[g.edge_v]) / g.edge_len


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

    indptr, indices, lengths = g._out_rows()
    mat = csr_matrix((lengths, indices, indptr), shape=(g.n, g.n))
    return connected_components(mat, directed=False)


def check_well_posed(g: Graph, v0: PartialAssignment) -> WellPosednessReport:
    """Undirected: every component holds a terminal. Directed: every free vertex
    lies on a terminal-to-terminal directed path, which one kernel call finds:
    the vertices reached from the terminals along the edges and against
    them. The report is the result."""
    if v0.n != g.n:
        raise GraphFormatError("assignment size does not match graph")
    terminals = v0.terminals()
    if g.directed:
        # reachability is a finite distance at scale 0, from and to the terminals
        ok = v0.terminal_mask()
        if terminals.size:
            start = np.zeros(terminals.shape[0])
            dist, _ = _dijkstra(g, [(terminals, start, False), (terminals, start, True)], 0.0)
            ok |= np.isfinite(dist).all(axis=0)
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
    """The check every solver runs first: NotWellPosedError unless
    ``check_well_posed`` passes, then GraphFormatError if a label difference
    or a gradient could overflow: if the label span (max - min) over the
    shortest edge length is not finite."""
    report = check_well_posed(g, v0)
    if not report.ok:
        raise NotWellPosedError(report)
    labels = v0.values[v0.terminals()]
    if labels.size and g.m:
        low, high, shortest = float(labels.min()), float(labels.max()), float(g.edge_len.min())
        if not math.isfinite((high - low) / shortest):
            raise GraphFormatError(
                f"labels from {low:.6g} to {high:.6g} over the shortest edge length {shortest:.6g} overflow float64"
            )


def _dijkstra(
    g: Graph, runs: Sequence[tuple[Sequence[int], Sequence[float], bool]], scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """(value, parent), one row per run (sources, start, reverse), with
    value[r, x] = min over the run's sources s of start[s] + scale * dist(s -> x),
    where dist follows edge orientation, or runs against it if the run's
    ``reverse`` is set on a directed graph.

    The shortest-path kernel of every propagation: one scipy Dijkstra call
    from one super-source row per run, appended to the graph's one CSR,
    whose edges to the run's sources carry its start offsets. Only
    ``terminal_pair_distances`` and ``top_terminal_gradient`` call
    ``_scipy_dijkstra`` directly: their rows are single-source searches at
    start 0 that stop at a radius, which this kernel does not take, and a
    super-source row would only copy the CSR once more per chunk. A run
    picks its orientation by its sources: the rows x of a directed CSR
    follow the edges, the rows n + x run against them. Each row is what the
    run gives alone. parent[r, x] is the predecessor on a minimizing path;
    it is -1 where the value is a source's own start and at unreached
    vertices, which get +inf. At scale 0 the offsets are the ranks of the run's
    distinct starts, so every reached vertex gets exactly the start of the
    source its parent chain leads to; at other scales they are the starts
    less their minimum, which can move a value by an ulp. A source outside
    [0, n) raises ValueError.
    """
    scale = float(scale)
    sources = np.concatenate([np.asarray(src, dtype=np.int64) for src, _, _ in runs])
    outside = sources[(sources < 0) | (sources >= g.n)]
    if outside.size:
        raise ValueError(f"source vertex {outside[0]} out of range for n={g.n}")
    offsets, restore = [], []
    for _, start, _ in runs:
        start = np.asarray(start, dtype=np.float64)
        if scale == 0.0:
            starts, rank = np.unique(start, return_inverse=True)
            offsets.append(rank.astype(np.float64))
            restore.append(starts)
        else:
            base = float(start.min())
            offsets.append(start - base)
            restore.append(base)
    # the runs against the edges, whose sources sit at the rows n + x
    back = np.array([[reverse and g.directed] for _, _, reverse in runs])
    sizes = [offset.shape[0] for offset in offsets]
    indptr, indices, lengths = g._csr()
    dist, pred = _scipy_dijkstra(
        np.concatenate([indptr, indptr[-1] + np.cumsum(sizes)], dtype=np.int32),
        np.concatenate([indices, sources + g.n * np.repeat(back[:, 0], sizes)], dtype=np.int32),
        np.concatenate([scale * lengths, *offsets]),
        np.arange(indptr.shape[0] - 1, indptr.shape[0] - 1 + len(runs)),
        predecessors=True,
    )
    if g.directed:
        dist = np.where(back, dist[:, g.n : 2 * g.n], dist[:, : g.n])
        pred = np.where(back, pred[:, g.n : 2 * g.n] - g.n, pred[:, : g.n])
    dist, parent = dist[:, : g.n], pred[:, : g.n].astype(np.int64)
    parent[(parent >= g.n) | (parent < 0)] = -1
    for row, back in zip(dist, restore):
        if scale == 0.0:
            reached = np.isfinite(row)
            row[reached] = back[row[reached].astype(np.int64)]
        else:
            row += back
    return dist, parent


def _scipy_dijkstra(indptr, indices, data, sources, predecessors: bool = False, limit: float = np.inf):
    """scipy's Dijkstra on raw CSR arrays of a square graph. Each search
    stops at distance ``limit``: farther vertices read inf, nearer ones as
    without a limit."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = indptr.shape[0] - 1
    mat = csr_matrix((data, indices, indptr), shape=(n, n))
    return dijkstra(mat, directed=True, indices=sources, return_predecessors=predecessors, limit=limit)


def single_source_distances(
    g: Graph, source: int, reverse: bool = False, with_parents: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Plain Dijkstra from one vertex (along orientation; reversed if asked).

    Unreachable vertices get +inf; parents are -1 at the source and there.
    A source outside [0, n) raises ValueError.
    """
    dist, parent = _dijkstra(g, [([source], [0.0], reverse)], 1.0)
    dist, parent = dist[0], parent[0]
    if with_parents:
        return dist, parent
    return dist


#: Bytes of distances that one batch holds at once: the scipy rows of
#: ``terminal_pair_distances`` and ``top_terminal_gradient``, and the length
#: matrices of one dense-kernel batch of the pressure descent.
PAIR_DISTANCE_BYTES = 4 << 20


def terminal_pair_distances(g: Graph, v0: PartialAssignment, limit: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """(terminals, dist) with dist[i, j] = shortest distance terminal i -> terminal j,
    or inf where it exceeds ``limit``.

    Paths may run through other terminals. scipy runs over chunks of
    terminals sized to ``PAIR_DISTANCE_BYTES``, so no |T| x n matrix is kept;
    each search stops at ``limit``, and every entry within it is bitwise the
    unbounded one.
    """
    terminals = v0.terminals()
    dist = np.empty((terminals.shape[0], terminals.shape[0]))
    rows = max(1, PAIR_DISTANCE_BYTES // (8 * max(g.n, 1)))
    csr = g._out_rows()
    for a in range(0, terminals.shape[0], rows):
        dist[a : a + rows] = _scipy_dijkstra(*csr, terminals[a : a + rows], limit=limit)[:, terminals]
    return terminals, dist


#: Relative slack on a cut-off radius, far above the rounding of the
#: gradients and radii it compares.
_RADIUS_SLACK = 1e-9


def terminal_gradient_matrix(g: Graph, v0: PartialAssignment, above: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(terminals, grad) with grad[i, j] = (v0(t_i) - v0(t_j)) / dist(t_i -> t_j),
    and -inf on the diagonal and where that distance is infinite or zero.

    With ``above`` > 0 the searches stop at the radius (max v0 - min v0) /
    above, which every gradient of at least ``above`` lies within: those
    entries are exact, and the others read exact or -inf."""
    vals = v0.values[v0.terminals()]
    limit = np.inf
    if above > 0.0 and vals.size:
        limit = (vals.max() - vals.min()) / above * (1.0 + _RADIUS_SLACK)
    terminals, dist = terminal_pair_distances(g, v0, limit)
    usable = np.isfinite(dist) & (dist > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.where(usable, (vals[:, None] - vals[None, :]) / dist, -np.inf)
    return terminals, grad


def top_terminal_gradient(g: Graph, v0: PartialAssignment) -> float:
    """The largest terminal-pair gradient, at least 0: the optimum with no
    label dropped. Searches run from the highest label down, in chunks that
    double up to the rows of ``PAIR_DISTANCE_BYTES``; each stops at the
    distance beyond which no terminal beats the best so far from the
    chunk's first source: (v0(s) - min v0) / best."""
    terminals = v0.terminals()
    vals = v0.values[terminals]
    lowest, best = vals.min(initial=np.inf), 0.0
    order = np.argsort(-vals, kind="stable")
    order = order[vals[order] > lowest]
    rows = max(1, PAIR_DISTANCE_BYTES // (8 * max(g.n, 1)))
    csr = g._out_rows()
    a, size = 0, 1
    while a < order.shape[0]:
        chunk = order[a : a + size]
        limit = (vals[chunk[0]] - lowest) / best * (1.0 + _RADIUS_SLACK) if best > 0.0 else np.inf
        dist = _scipy_dijkstra(*csr, terminals[chunk], limit=limit)[:, terminals]
        dist[np.arange(chunk.shape[0]), chunk] = np.inf
        best = max(best, float(((vals[chunk, None] - vals) / dist).max()))
        a, size = a + size, min(2 * size, rows)
    return best


#: Tolerance of ``sorted_distinct``: the gradients closer than this are one candidate threshold.
DISTINCT_TOL = 1e-12


def sorted_distinct(values: np.ndarray, tol: float = DISTINCT_TOL) -> np.ndarray:
    """Sorted values, dropping each one within ``tol`` of the last kept one
    (relative above magnitude 1, absolute below, as in ``definitely_greater``).

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

