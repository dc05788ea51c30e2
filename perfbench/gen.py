"""Seeded instance generation for the benchmark workloads (never timed).

Undirected instances come from ``lexgraph.synth``; the directed one comes
from ``random_digraph`` below, because ``synth`` has no digraph generator.
Every instance is written as TSV in the ``lexgraph synth`` format, so the
measured process reads it through the CLI readers exactly like a user file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def random_digraph(n: int, n_terminals: int, seed: int):
    """Directed instance: 3n candidate arcs with lengths from U(0.2, 2),
    terminals with values from U(0, 1), stranded free vertices labeled.

    This is the test suite's ``random_directed_instance`` at a fixed, larger
    size. Returns ``(n, arcs, labels)`` with ``arcs`` a list of
    ``(u, v, length)`` and ``labels`` a dict vertex -> value.
    """
    from lexgraph import Graph, PartialAssignment, check_well_posed

    rng = np.random.default_rng(seed)
    arcs: dict[tuple[int, int], float] = {}
    for _ in range(3 * n):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (u, v) not in arcs:
            arcs[(u, v)] = float(rng.uniform(0.2, 2.0))
    edges = [(u, v, w) for (u, v), w in arcs.items()]
    labels = {int(t): float(rng.uniform(0.0, 1.0)) for t in rng.choice(n, size=n_terminals, replace=False)}
    g = Graph(n, edges, directed=True)
    report = check_well_posed(g, PartialAssignment.from_dict(n, labels))
    for x in report.stranded_vertices:
        labels[int(x)] = float(rng.uniform(0.0, 1.0))
    # an edge list cannot name a vertex without arcs; such a vertex is an
    # isolated terminal that no solver reads, so its label is dropped too
    touched = {u for u, _ in arcs} | {v for _, v in arcs}
    return n, edges, {x: val for x, val in labels.items() if x in touched}


def write_instance(prefix: Path, directed: bool, edges, labels: dict[int, float]) -> tuple[Path, Path]:
    """Write ``<prefix>.edges.tsv`` and ``<prefix>.labels.tsv`` the way
    ``lexgraph synth`` does; returns both paths."""
    edge_path = Path(f"{prefix}.edges.tsv")
    label_path = Path(f"{prefix}.labels.tsv")
    rows = ["#directed" if directed else "#undirected"]
    rows.extend(f"{u}\t{v}\t{w:.12g}" for u, v, w in edges)
    edge_path.write_text("\n".join(rows) + "\n")
    label_path.write_text("".join(f"{x}\t{labels[x]:.12g}\n" for x in sorted(labels)))
    return edge_path, label_path


def synth_edges(graph):
    """Edge rows of a ``lexgraph.synth`` instance graph."""
    return zip(graph.edge_u.tolist(), graph.edge_v.tolist(), graph.edge_len.tolist())
