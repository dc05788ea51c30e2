"""Sloped distance envelopes and the pressure test.

``mod_dijkstra`` computes value(x) = min_t {v0(t) + alpha * dist(t -> x)} with
the shared shortest-path kernel of ``core``: a multi-source Dijkstra whose
sources start at their label values, with edge lengths scaled by alpha. The
low and high envelopes sandwich every extension with gradient norm <= alpha,
and their strict separation certifies that a steeper terminal path runs
through the vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Graph,
    NotWellPosedError,
    PartialAssignment,
    WellPosednessReport,
    _dijkstra,
    definitely_greater,
)


@dataclass(frozen=True)
class Envelope:
    """Per-vertex envelope values plus the Dijkstra parent tree.

    parent[x] = -1 on sources/unreached; elsewhere the recurrence
    value(x) = value(parent(x)) +/- alpha * len(x, parent(x)) holds.
    """

    values: np.ndarray
    parent: np.ndarray
    alpha: float


@dataclass(frozen=True)
class PressureSubgraph:
    """Induced subgraph on the vertices whose pressure exceeds a threshold."""

    graph: Graph
    vertices: np.ndarray  # original ids, ascending
    alpha: float


def mod_dijkstra(
    g: Graph,
    v0: PartialAssignment,
    alpha: float,
    reverse: bool = False,
    require_complete: bool = True,
) -> Envelope:
    """Envelope value(x) = min over terminals t of v0(t) + alpha * dist(t -> x).

    Distances follow edge orientation toward x (``reverse`` flips it). This
    is the kernel ``core._dijkstra`` with the terminals as sources, starting
    at their labels, and lengths scaled by alpha, which must be finite and
    nonnegative (else ValueError). With ``require_complete`` a vertex
    unreachable from every terminal raises NotWellPosedError; otherwise it
    carries +inf and parent -1.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    terminals = v0.terminals()
    if terminals.size == 0:
        raise NotWellPosedError(WellPosednessReport(False, stranded_vertices=tuple(range(g.n))))
    values, parent = _dijkstra(g, terminals, v0.values[terminals], alpha, reverse)
    if require_complete and not np.isfinite(values).all():
        bad = tuple(int(x) for x in np.flatnonzero(~np.isfinite(values)))
        raise NotWellPosedError(WellPosednessReport(False, stranded_vertices=bad))
    return Envelope(values, parent, float(alpha))


def comp_vlow(g: Graph, v0: PartialAssignment, alpha: float, **kw) -> Envelope:
    """Low envelope: min_t {v0(t) + alpha * dist(x -> t)} (x-to-terminal distances)."""
    return mod_dijkstra(g, v0, alpha, reverse=g.directed, **kw)


def comp_vhigh(g: Graph, v0: PartialAssignment, alpha: float, **kw) -> Envelope:
    """High envelope: max_t {v0(t) - alpha * dist(t -> x)} via negated labels."""
    neg = PartialAssignment(np.negative(v0.values))
    env = mod_dijkstra(g, neg, alpha, reverse=False, **kw)
    return Envelope(np.negative(env.values), env.parent, float(alpha))


def envelope_pair(
    g: Graph, v0: PartialAssignment, alpha: float, require_complete: bool = True
) -> tuple[Envelope, Envelope]:
    vlow = comp_vlow(g, v0, alpha, require_complete=require_complete)
    vhigh = comp_vhigh(g, v0, alpha, require_complete=require_complete)
    return vlow, vhigh


def pressure_exceeds(g: Graph, v0: PartialAssignment, alpha: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-vertex test: does a terminal path with gradient > alpha run through x?

    Equivalent to vHigh[alpha](x) > vLow[alpha](x) beyond tolerance. Vertices
    with no terminal path through them (possible on directed graphs) report
    False for every alpha >= 0.
    """
    vlow, vhigh = envelope_pair(g, v0, alpha, require_complete=False)
    return definitely_greater(vhigh.values, vlow.values, tol)


def high_pressure_subgraph(g: Graph, v0: PartialAssignment, alpha: float, tol: float = DEFAULT_TOL) -> PressureSubgraph:
    """Induced subgraph on {x : pressure(x) > alpha}; may be empty."""
    mask = pressure_exceeds(g, v0, alpha, tol=tol)
    vertices = np.flatnonzero(mask)
    sub, orig = g.induced_subgraph(vertices)
    return PressureSubgraph(sub, orig, float(alpha))
