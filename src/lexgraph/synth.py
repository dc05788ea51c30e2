"""Synthetic benchmark instances, fully determined by a seed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Graph, PartialAssignment, check_well_posed


@dataclass(frozen=True)
class SyntheticInstance:
    graph: Graph
    labels: dict[int, float]
    truth: Optional[np.ndarray] = None  # per-vertex regression target when defined
    positions: Optional[np.ndarray] = None

    def assignment(self) -> PartialAssignment:
        return PartialAssignment.from_dict(self.graph.n, self.labels)


def gauss1d(
    per_cluster: int = 100,
    cluster_std: float = 1.0,
    kernel_sigma: float = 0.4,
    seed: int = 0,
) -> SyntheticInstance:
    """Two point clouds on the line (centers 0 and 4), complete graph with
    lengths exp(|x-y|^2 / (2 sigma^2)), labels -1 / +1 on the samples nearest
    to the two centers."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [rng.normal(0.0, cluster_std, per_cluster), rng.normal(4.0, cluster_std, per_cluster)]
    )
    n = pts.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    lengths = np.exp((pts[iu] - pts[ju]) ** 2 / (2.0 * kernel_sigma**2))
    graph = Graph(n, zip(iu.tolist(), ju.tolist(), lengths.tolist()))
    labels = {int(np.abs(pts).argmin()): -1.0, int(np.abs(pts - 4.0).argmin()): 1.0}
    return SyntheticInstance(graph, labels, truth=None, positions=pts)


def cube_knn(
    n: int,
    dim: int = 4,
    knn: int = 8,
    n_labels: int = 100,
    seed: int = 0,
) -> SyntheticInstance:
    """Uniform samples in the unit cube, symmetrized k-nearest-neighbor graph
    with Euclidean lengths; the regression target is the first coordinate,
    revealed on a random subset."""
    from scipy.spatial import cKDTree

    if n_labels > n:
        raise ValueError("more labels than vertices")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    tree = cKDTree(pts)
    dists, idx = tree.query(pts, k=knn + 1)
    lengths = np.where(dists[:, 1:] <= 0.0, 1e-12, dists[:, 1:])  # coincident samples; keep the edge usable
    graph = Graph(n, zip(np.repeat(np.arange(n), knn).tolist(), idx[:, 1:].ravel().tolist(), lengths.ravel().tolist()))
    chosen = rng.choice(n, size=n_labels, replace=False)
    labels = {int(i): float(pts[i, 0]) for i in sorted(chosen)}
    return SyntheticInstance(graph, labels, truth=pts[:, 0].copy(), positions=pts)


def random_regular(
    n: int,
    degree: int = 4,
    n_labels: int = 100,
    seed: int = 0,
) -> SyntheticInstance:
    """Random d-regular graph (pairing model with swap repair), unit lengths,
    uniform random labels on a random vertex subset."""
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    if n_labels > n:
        raise ValueError("more labels than vertices")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if _repair_pairs(pairs, rng):
            break
    else:
        raise RuntimeError("failed to build a simple regular graph")
    graph = Graph(n, [(int(a), int(b), 1.0) for a, b in pairs])
    chosen = rng.choice(n, size=n_labels, replace=False)
    labels = {int(i): float(rng.uniform(0.0, 1.0)) for i in sorted(chosen)}
    return SyntheticInstance(graph, labels)


def random_digraph(n: int, n_labels: int = 100, seed: int = 0) -> SyntheticInstance:
    """Random digraph, drawn as the benchmark's: 3n candidate arcs between
    uniform random vertices (self-loops and repeats skipped) with lengths from
    U(0.2, 2), labels from U(0, 1) on a random vertex subset and on every free
    vertex on no terminal-to-terminal path; vertices without arcs are dropped."""
    if n_labels > n:
        raise ValueError("more labels than vertices")
    rng = np.random.default_rng(seed)
    arcs: dict[tuple[int, int], float] = {}
    for _ in range(3 * n):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (u, v) not in arcs:
            arcs[(u, v)] = float(rng.uniform(0.2, 2.0))
    graph = Graph(n, [(u, v, w) for (u, v), w in arcs.items()], directed=True)
    labels = {int(t): float(rng.uniform(0.0, 1.0)) for t in rng.choice(n, size=n_labels, replace=False)}
    for x in check_well_posed(graph, PartialAssignment.from_dict(n, labels)).stranded_vertices:
        labels[x] = float(rng.uniform(0.0, 1.0))
    graph, kept = graph.induced_subgraph(np.union1d(graph.edge_u, graph.edge_v))
    local = {int(x): i for i, x in enumerate(kept)}
    return SyntheticInstance(graph, {local[x]: val for x, val in sorted(labels.items()) if x in local})


def _repair_pairs(pairs: np.ndarray, rng) -> bool:
    """Swap away self-loops and duplicate edges; True on success."""
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
