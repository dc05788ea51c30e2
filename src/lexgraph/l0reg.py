"""Exact and approximate outlier removal for inf-minimization.

Dropping up to k labels to minimize the max gradient reduces to minimum
vertex cover on the pressure graph over terminals, which is always a
transitively closed DAG. Both the pressure graph and the candidate
thresholds come from one terminal-pair gradient matrix. The cover comes from
scipy csgraph: a maximum matching on the bipartite double graph plus König's
construction, or a Dinic min cut on a network that encodes the transitive
closure implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Graph,
    LexgraphError,
    PartialAssignment,
    _dijkstra,
    check_well_posed,
    definitely_greater,
    inf_norm_of,
    require_well_posed,
    sorted_distinct,
    terminal_gradient_matrix,
)
from .envelopes import envelope_pair
from .solvers import SolverResult, _terminal_edge_mask
from .steepest import steepest_path


class NotADagError(LexgraphError):
    pass


@dataclass(frozen=True)
class PressureGraph:
    """Unweighted digraph on terminal ids; arc (s, t) marks a terminal path
    from s to t steeper than the threshold. Always a transitively closed DAG."""

    nodes: tuple[int, ...]
    arcs: frozenset[tuple[int, int]]
    alpha: float | None = None

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean k x k matrix of the arcs, rows and columns in ``nodes`` order."""
        index = {v: i for i, v in enumerate(self.nodes)}
        adj = np.zeros((len(self.nodes), len(self.nodes)), dtype=bool)
        for s, t in self.arcs:
            adj[index[s], index[t]] = True
        return adj

    def is_dag(self) -> bool:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        adj = self.adjacency_matrix()
        n_strong, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
        return n_strong == len(self.nodes) and not adj.diagonal().any()

    def is_transitively_closed(self) -> bool:
        adj = self.adjacency_matrix()
        two_step = (adj.astype(np.float32) @ adj.astype(np.float32)) > 0
        np.fill_diagonal(two_step, False)
        return not (two_step & ~adj).any()


def _pressure_adjacency(grad: np.ndarray, alpha: float, tol: float) -> np.ndarray:
    """``definitely_greater(grad, alpha, tol)`` entrywise."""
    with np.errstate(invalid="ignore"):
        return grad - alpha > tol * np.maximum(np.maximum(np.abs(grad), abs(alpha)), 1.0)


def term_pressure_graph(
    g: Graph, v0: PartialAssignment, alpha: float, tol: float = DEFAULT_TOL
) -> PressureGraph:
    """Arc (s, t) iff the shortest-path gradient from s to t exceeds alpha.

    Shortest paths may run through other terminals.
    """
    terminals, grad = terminal_gradient_matrix(g, v0)
    rows, cols = np.nonzero(_pressure_adjacency(grad, alpha, tol))
    arcs = frozenset(zip(terminals[rows].tolist(), terminals[cols].tolist()))
    return PressureGraph(tuple(terminals.tolist()), arcs, float(alpha))


def _min_cover(adj: np.ndarray) -> np.ndarray:
    """Boolean mask of a minimum vertex cover of the transitively closed DAG
    with boolean k x k adjacency ``adj``, by König's theorem on its bipartite
    double graph (row i is the left copy of i, column j the right copy of j).

    The cover is (L minus Z) plus (R in Z), Z the vertices reachable by
    alternating paths from unmatched left copies. Z does not depend on which
    maximum matching scipy returns, so neither does the cover.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    k = adj.shape[0]
    match_l = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
    match_r = np.full(k, -1)
    matched = np.flatnonzero(match_l >= 0)
    match_r[match_l[matched]] = matched
    seen_l = match_l < 0
    seen_r = np.zeros(k, dtype=bool)
    frontier = seen_l.copy()
    while frontier.any():
        reached = adj[frontier].any(axis=0) & ~seen_r
        seen_r |= reached
        frontier = np.zeros(k, dtype=bool)
        frontier[match_r[reached]] = True  # every reached right copy is matched
        frontier &= ~seen_l
        seen_l |= frontier
    return ~seen_l | seen_r


def min_vc_tcdag(dag: PressureGraph, validate: bool = True) -> frozenset[int]:
    """Minimum vertex cover of a transitively closed DAG via a maximum
    matching on its bipartite double graph (one left and one right copy per
    vertex, arcs become left-right edges)."""
    if validate:
        if not dag.is_dag():
            raise NotADagError("input has a directed cycle")
        if not dag.is_transitively_closed():
            raise NotADagError("input is not transitively closed")
    cover = _min_cover(dag.adjacency_matrix())
    return frozenset(np.asarray(dag.nodes, dtype=np.int64)[cover].tolist())


def min_vc_implicit(dag: PressureGraph, validate: bool = True) -> frozenset[int]:
    """Minimum vertex cover of the transitive closure of a DAG without
    materializing the closure: min cut on the split network with back arcs
    (v, right) -> (v, left) standing in for closure edges."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    if validate and not dag.is_dag():
        raise NotADagError("input has a directed cycle")
    k = len(dag.nodes)
    if k == 0:
        return frozenset()
    # node 0 is the source, 1 the sink, 2 + i the left and 2 + k + i the right copy of i
    left, right = 2 + np.arange(k), 2 + k + np.arange(k)
    inf_cap = 2 * k + 1  # one above every unit arc; never in a min cut
    arc_s, arc_t = np.nonzero(dag.adjacency_matrix())
    tails = np.concatenate([np.zeros(k, dtype=np.int64), right, right, left[arc_s]])
    heads = np.concatenate([left, np.ones(k, dtype=np.int64), left, right[arc_t]])
    caps = np.concatenate([np.ones(2 * k), np.full(k + arc_s.shape[0], inf_cap)]).astype(np.int32)
    capacity = csr_matrix((caps, (tails, heads)), shape=(2 + 2 * k, 2 + 2 * k))
    residual = capacity - maximum_flow(capacity, 0, 1, method="dinic").flow
    source_side = np.zeros(2 + 2 * k, dtype=bool)
    source_side[breadth_first_order(residual > 0, 0, directed=True, return_predecessors=False)] = True
    cover = ~source_side[left] | source_side[right]
    return frozenset(np.asarray(dag.nodes, dtype=np.int64)[cover].tolist())


@dataclass(frozen=True)
class OutlierResult:
    result: SolverResult
    removed: frozenset[int]
    alpha: float


def _sweep_extend(g: Graph, v0: PartialAssignment, alpha: float) -> np.ndarray:
    """Feasible completion with max gradient <= alpha, robust to instances
    whose label removal stranded some vertices: the envelope midpoint where
    both envelopes are finite; elsewhere the one finite bound (else 0),
    repaired by two sloped envelopes of the shortest-path kernel. The
    vertices that reach no terminal are raised to the max over u of
    value(u) - alpha * dist(u -> x), on paths whose later vertices lie in
    that set; then those that no terminal reaches are lowered likewise to
    the min of value(u) + alpha * dist(x -> u)."""
    if v0.terminals().size == 0:
        return np.zeros(g.n)  # every label dropped: any constant has gradient 0
    vlow, vhigh = envelope_pair(g, v0, alpha, require_complete=False)
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
    # only the two sets take the envelopes: the kernel's scipy branch shifts
    # its start values, so a label passed through it can move by an ulp (and
    # 0 come back as -0, which 0.0 - x, unlike -x, turns into 0)
    every = np.arange(g.n)
    up = _dijkstra(g.with_edge_mask(raise_set[g.edge_v]), every, -values, alpha, False)[0]
    values[raise_set] = 0.0 - up[raise_set]
    down = _dijkstra(g.with_edge_mask(lower_set[g.edge_u]), every, values, alpha, True)[0]
    values[lower_set] = down[lower_set]
    return values


def _max_kept_gradient(grad: np.ndarray, keep: np.ndarray) -> float:
    """Largest gradient between kept terminals, at least 0."""
    return float(grad[np.ix_(keep, keep)].max(initial=0.0))


def outlier_exact(g: Graph, v0: PartialAssignment, k: int, tol: float = DEFAULT_TOL) -> OutlierResult:
    """Exact l0 label regularization: the smallest achievable max gradient
    when up to k labels may be dropped, found by binary search over the
    terminal-pair gradients with a minimum-vertex-cover feasibility test."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    require_well_posed(g, v0)
    terminals, grad = terminal_gradient_matrix(g, v0)
    candidates = sorted_distinct(np.concatenate([[0.0], grad[grad > 0]]))

    def cover_at(alpha: float) -> np.ndarray:
        return _min_cover(_pressure_adjacency(grad, alpha, tol))

    lo, hi = 0, len(candidates) - 1
    best_cover = cover_at(candidates[hi])
    evaluations = 1
    if best_cover.sum() > k:
        raise LexgraphError("no candidate threshold is feasible; inconsistent instance")
    while lo < hi:
        mid = (lo + hi) // 2
        cover = cover_at(candidates[mid])
        evaluations += 1
        if cover.sum() <= k:
            hi = mid
            best_cover = cover
        else:
            lo = mid + 1

    freed = v0.values.copy()
    freed[terminals[best_cover]] = np.nan
    values = _sweep_extend(g, PartialAssignment(freed), _max_kept_gradient(grad, ~best_cover))
    result = SolverResult(values, inf_norm_of(g, values), evaluations, ())
    return OutlierResult(result, frozenset(terminals[best_cover].tolist()), float(candidates[hi]))


def outlier_approx(
    g: Graph, v0: PartialAssignment, k: int, seed: int = 0, tol: float = DEFAULT_TOL
) -> OutlierResult:
    """Greedy 2k-removal approximation: k rounds of dropping both endpoints of
    the steepest terminal path, then an inf-min completion. Achieves the
    k-budget optimum gradient with at most 2k removals."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    require_well_posed(g, v0)
    rng = np.random.default_rng(seed)
    terminals, grad = terminal_gradient_matrix(g, v0)
    removed: set[int] = set()
    values = v0.values.copy()
    rounds = 0
    for _ in range(k):
        cur = PartialAssignment(values)
        if cur.terminals().size < 2:
            break
        endpoints = _steepest_terminal_pair(g, cur, rng, tol, terminals, grad)
        if endpoints is None:
            break
        s, t = endpoints
        removed.update((s, t))
        values[[s, t]] = np.nan
        rounds += 1
    residual = _max_kept_gradient(grad, ~np.isnan(values[terminals]))
    out = _sweep_extend(g, PartialAssignment(values), residual)
    result = SolverResult(out, inf_norm_of(g, out), rounds, ())
    return OutlierResult(result, frozenset(removed), float(residual))


def _steepest_terminal_pair(g, cur, rng, tol, terminals, grad):
    """Endpoints of the steepest terminal path w.r.t. the current labels, or
    None when no path has positive gradient. Terminal-terminal edges count.
    ``grad`` is the gradient matrix of the original labels on ``terminals``."""
    best = None  # (gradient, s, t)
    tt = _terminal_edge_mask(g, cur.values)
    if tt.any():
        eu, ev, el = g.edge_u[tt], g.edge_v[tt], g.edge_len[tt]
        grads = (cur.values[eu] - cur.values[ev]) / el
        if not g.directed:
            flip = grads < 0
            eu, ev = np.where(flip, ev, eu), np.where(flip, eu, ev)
            grads = np.abs(grads)
        i = int(np.argmax(grads))
        best = (float(grads[i]), int(eu[i]), int(ev[i]))
    if not cur.is_complete and check_well_posed(g, cur).ok:
        work = g.with_edge_mask(~tt)
        path = steepest_path(work, cur, seed=int(rng.integers(2**63)), tol=tol)
        if best is None or path.gradient > best[0]:
            best = (path.gradient, path.first, path.last)
    elif not cur.is_complete:
        # removals broke well-posedness; take the steepest pair of kept
        # terminals instead, the row-major first one on ties
        keep = cur.terminal_mask()[terminals]
        sub = grad[np.ix_(keep, keep)]
        if sub.size:
            i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
            if sub[i, j] > (-np.inf if best is None else best[0]):
                best = (float(sub[i, j]), int(terminals[keep][i]), int(terminals[keep][j]))
    if best is None or not definitely_greater(best[0], 0.0, tol):
        return None
    return best[1], best[2]
