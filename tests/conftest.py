"""Shared instance generators. Everything is deterministic in the seed."""

from __future__ import annotations

import numpy as np
import pytest

from lexgraph import Graph, PartialAssignment, check_well_posed
from lexgraph.core import definitely_greater
from lexgraph.solvers import _fix_path_inplace, _terminal_edge_mask
from lexgraph.steepest import steepest_path


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


def reference_directed_fixing(g: Graph, v0: PartialAssignment, seed: int = 0, tol: float = 1e-9):
    """(values, fixed paths) of the whole-graph directed fixing loop that
    ``directed_lex_min`` ran before its pressure descent: one steepest path
    of the whole graph per round, fixed while its gradient is positive
    beyond tolerance. A test reference only; the library never calls it."""
    rng = np.random.default_rng(seed)
    values = v0.values.copy()
    fixed = []
    while np.isnan(values).any():
        work = g.with_edge_mask(~_terminal_edge_mask(g, values))
        path = steepest_path(work, PartialAssignment(values), seed=int(rng.integers(2**63)), tol=tol)
        if not definitely_greater(path.gradient, 0.0, tol):
            break
        fixed.append((path, _fix_path_inplace(g, values, path, tol)))
    return values, fixed


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


@pytest.fixture
def path3():
    """Unit path 0-1-2 with labels 0 and 1 at the ends."""
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    return g, PartialAssignment([0.0, None, 1.0])
