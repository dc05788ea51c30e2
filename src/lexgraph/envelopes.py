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
    """Per-vertex envelope values; +inf (low) or -inf (high) where the
    envelope's paths do not reach."""

    values: np.ndarray


@dataclass(frozen=True)
class PressureSubgraph:
    """Induced subgraph on the vertices whose pressure exceeds a threshold."""

    graph: Graph
    vertices: np.ndarray  # original ids, ascending
    alpha: float


def _terminals(g: Graph, v0: PartialAssignment, alpha: float) -> np.ndarray:
    """The sources of an envelope: v0's terminals. ValueError unless alpha is
    finite and nonnegative; NotWellPosedError if there is no terminal."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    terminals = v0.terminals()
    if terminals.size == 0:
        raise NotWellPosedError(WellPosednessReport(False, stranded_vertices=tuple(range(g.n))))
    return terminals


def mod_dijkstra(g: Graph, v0: PartialAssignment, alpha: float, reverse: bool = False) -> Envelope:
    """Envelope value(x) = min over terminals t of v0(t) + alpha * dist(t -> x).

    Distances follow edge orientation toward x (``reverse`` flips it). This
    is the kernel ``core._dijkstra`` with the terminals as sources, starting
    at their labels, and lengths scaled by alpha, which must be finite and
    nonnegative (else ValueError). A vertex that no terminal reaches carries
    +inf; an assignment with no terminal raises NotWellPosedError.
    """
    terminals = _terminals(g, v0, alpha)
    values, _ = _dijkstra(g, [(terminals, v0.values[terminals], reverse)], alpha)
    return Envelope(values[0])


def comp_vlow(g: Graph, v0: PartialAssignment, alpha: float) -> Envelope:
    """Low envelope: min_t {v0(t) + alpha * dist(x -> t)} (x-to-terminal
    distances); +inf where x reaches no terminal."""
    return mod_dijkstra(g, v0, alpha, reverse=g.directed)


def comp_vhigh(g: Graph, v0: PartialAssignment, alpha: float) -> Envelope:
    """High envelope: max_t {v0(t) - alpha * dist(t -> x)} via negated labels;
    -inf where no terminal reaches x."""
    neg = PartialAssignment(np.negative(v0.values))
    return Envelope(np.negative(mod_dijkstra(g, neg, alpha, reverse=False).values))


def envelope_pair(g: Graph, v0: PartialAssignment, alpha: float) -> tuple[Envelope, Envelope]:
    """(low, high) envelopes from one kernel call: the labels are one run, on
    x-to-terminal distances, and the negated labels the other, on
    terminal-to-x distances (the same on an undirected graph). A vertex that
    one of them does not reach carries +inf (low) or -inf (high) there."""
    terminals = _terminals(g, v0, alpha)
    start = v0.values[terminals]
    values, _ = _dijkstra(g, [(terminals, start, True), (terminals, np.negative(start), False)], alpha)
    return Envelope(values[0]), Envelope(np.negative(values[1]))


def pressure_exceeds(g: Graph, v0: PartialAssignment, alpha: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per-vertex test: does a terminal path with gradient > alpha run through x?

    Equivalent to vHigh[alpha](x) > vLow[alpha](x) beyond tolerance. Vertices
    with no terminal path through them (possible on directed graphs) report
    False for every alpha >= 0.
    """
    vlow, vhigh = envelope_pair(g, v0, alpha)
    return definitely_greater(vhigh.values, vlow.values, tol)


def high_pressure_subgraph(g: Graph, v0: PartialAssignment, alpha: float) -> PressureSubgraph:
    """Induced subgraph on {x : pressure(x) > alpha}; may be empty."""
    vertices = np.flatnonzero(pressure_exceeds(g, v0, alpha))
    sub, orig = g.induced_subgraph(vertices)
    return PressureSubgraph(sub, orig, float(alpha))


def _sweep_extend(g: Graph, v0: PartialAssignment, alpha: float) -> np.ndarray:
    """Feasible completion with max gradient <= alpha, that of
    ``comp_inf_min`` and of both l0 solvers, robust to instances whose
    label removal stranded some vertices: the envelope midpoint where
    both envelopes are finite; elsewhere the one finite bound (else 0),
    repaired by two sloped envelopes of the shortest-path kernel. The
    vertices that reach no terminal are raised to the max over u of
    value(u) - alpha * dist(u -> x), on paths whose later vertices lie in
    that set; then those that no terminal reaches are lowered likewise to
    the min of value(u) + alpha * dist(x -> u)."""
    if v0.terminals().size == 0:
        return np.zeros(g.n)  # every label dropped: any constant has gradient 0
    vlow, vhigh = envelope_pair(g, v0, alpha)
    # the high envelope is the pointwise lower bound on feasible values,
    # the low envelope the upper bound; both are finite at terminals
    lo, hi = vhigh.values, vlow.values
    raise_set = ~np.isfinite(hi)  # unbounded above: can only be pushed up
    lower_set = ~np.isfinite(lo) & ~raise_set
    lo_safe, hi_safe = np.where(np.isfinite(lo), lo, 0.0), np.where(raise_set, 0.0, hi)
    values = np.select(
        [v0.terminal_mask(), raise_set, lower_set], [v0.values, lo_safe, hi], 0.5 * (lo_safe + hi_safe)
    )
    if not (raise_set.any() or lower_set.any()):
        return values
    # only the two sets take the envelopes: at alpha > 0 the kernel shifts
    # its start values, so a label passed through it can move by an ulp (and
    # 0 come back as -0, which 0.0 - x, unlike -x, turns into 0)
    every = np.arange(g.n)
    up = _dijkstra(g.with_edge_mask(raise_set[g.edge_v]), [(every, -values, False)], alpha)[0][0]
    values[raise_set] = 0.0 - up[raise_set]
    down = _dijkstra(g.with_edge_mask(lower_set[g.edge_u]), [(every, values, True)], alpha)[0][0]
    values[lower_set] = down[lower_set]
    return values
