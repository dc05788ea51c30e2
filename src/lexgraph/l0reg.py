"""Exact and approximate outlier removal for inf-minimization.

Both solvers choose the labels to drop on terminal-pair gradient matrices
(a shortest path through a third terminal is a mediant of its two halves, so
never beats them), then share one completion. The matrices come in rounds:
the searches first stop at the radius beyond which no gradient reaches a
threshold a little below the top gradient, so only the entries above that
threshold are known, and each round lowers the threshold until the entries
it knows settle the solve, or takes the unbounded matrix. Exact: a minimum
vertex cover of the pressure graph over terminals, always a transitively
closed DAG, from scipy csgraph's maximum matching on its bipartite double
graph plus König's construction, or a Dinic min cut that encodes the
closure implicitly; binary search over the matrix entries finds the
threshold. Approximate: drop both ends of the steepest kept pair, k times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DISTINCT_TOL,
    Graph,
    LexgraphError,
    PartialAssignment,
    definitely_greater,
    inf_norm_of,
    require_well_posed,
    sorted_distinct,
    terminal_gradient_matrix,
    top_terminal_gradient,
)
from .envelopes import _sweep_extend
from .solvers import SolverResult


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
        nodes = np.asarray(self.nodes, dtype=np.int64)
        ends = np.array(list(self.arcs), dtype=np.int64).reshape(-1, 2)
        order = np.argsort(nodes)
        pos = order[np.searchsorted(nodes, ends, sorter=order).clip(max=max(nodes.shape[0] - 1, 0))]
        if (nodes[pos] != ends).any():
            raise KeyError("an arc ends outside the nodes")
        adj = np.zeros((nodes.shape[0], nodes.shape[0]), dtype=bool)
        adj[pos[:, 0], pos[:, 1]] = True
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


def term_pressure_graph(g: Graph, v0: PartialAssignment, alpha: float) -> PressureGraph:
    """Arc (s, t) iff the shortest-path gradient from s to t exceeds alpha.

    Shortest paths may run through other terminals. At alpha > 0 the
    searches stop at the radius beyond which no gradient reaches alpha.
    """
    terminals, grad = terminal_gradient_matrix(g, v0, alpha)
    rows, cols = np.nonzero(definitely_greater(grad, alpha))
    arcs = frozenset(zip(terminals[rows].tolist(), terminals[cols].tolist()))
    return PressureGraph(tuple(terminals.tolist()), arcs, float(alpha))


#: The cut-off rounds of the l0 searches run at SHRINK, SHRINK**2, ...,
#: SHRINK**ROUNDS times the top gradient, then on the unbounded matrix.
SHRINK = 0.8
ROUNDS = 8
#: A cut-off round that reached at least this share of the terminal pairs
#: cost about as much as the unbounded matrix, which comes next if it did not
#: settle the search.
REACHED = 1 / 8


def _gradient_rounds(g: Graph, v0: PartialAssignment, cut_off: bool = True):
    """Yield (terminals, grad, floor): terminal gradient matrices cut off at
    a shrinking threshold ``floor``, exact at every entry of at least floor
    and exact or -inf elsewhere. The last is the unbounded matrix, with
    floor -inf; so is a cut-off one that reached every terminal pair."""
    top = top_terminal_gradient(g, v0) if cut_off else 0.0
    for step in range(1, ROUNDS + 1) if top > 0.0 else ():
        above = top * SHRINK**step
        terminals, grad = terminal_gradient_matrix(g, v0, above)
        reached = np.isfinite(grad).sum() / max(grad.shape[0] * (grad.shape[0] - 1), 1)
        if reached == 1.0:
            yield terminals, grad, -np.inf
            return
        yield terminals, grad, above
        if reached >= REACHED:
            break
    yield *terminal_gradient_matrix(g, v0), -np.inf


def _candidates(grad: np.ndarray, floor: float) -> np.ndarray:
    """The thresholds of the exact search: ``sorted_distinct`` of 0 and the
    positive gradients. A cut-off round knows only the entries of at least
    floor, so its list starts at the first of them that is definitely
    greater than the one below it, or than floor if none is known below it;
    that value and all above it keep the representatives the whole list
    keeps."""
    values = np.unique(np.concatenate([[0.0], grad[grad > 0]]))
    if floor > -np.inf:
        values = np.concatenate([[floor], values[values > floor]])
        starts = np.flatnonzero(definitely_greater(values[1:], values[:-1], DISTINCT_TOL))
        values = values[starts[0] + 1 :] if starts.size else values[:0]
    return sorted_distinct(values)


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


def min_vc_tcdag(dag: PressureGraph) -> frozenset[int]:
    """Minimum vertex cover of a transitively closed DAG via a maximum
    matching on its bipartite double graph (one left and one right copy per
    vertex, arcs become left-right edges); other input raises NotADagError."""
    if not dag.is_dag():
        raise NotADagError("input has a directed cycle")
    if not dag.is_transitively_closed():
        raise NotADagError("input is not transitively closed")
    cover = _min_cover(dag.adjacency_matrix())
    return frozenset(np.asarray(dag.nodes, dtype=np.int64)[cover].tolist())


def min_vc_implicit(dag: PressureGraph) -> frozenset[int]:
    """Minimum vertex cover of the transitive closure of a DAG without
    materializing the closure: min cut on the split network with back arcs
    (v, right) -> (v, left) standing in for closure edges. A cyclic input
    raises NotADagError."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    if not dag.is_dag():
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


def _complete(g, v0, terminals, grad, drop, iterations, alpha=None) -> OutlierResult:
    """Free the labels of ``terminals[drop]`` and extend at the largest
    gradient left between kept terminals (at least 0), which is also the
    reported alpha unless one is given."""
    residual = float(grad[np.ix_(~drop, ~drop)].max(initial=0.0))
    freed = v0.values.copy()
    freed[terminals[drop]] = np.nan
    values = _sweep_extend(g, PartialAssignment(freed), residual)
    result = SolverResult(values, inf_norm_of(g, values), iterations, ())
    return OutlierResult(result, frozenset(terminals[drop].tolist()), residual if alpha is None else alpha)


def outlier_exact(g: Graph, v0: PartialAssignment, k: int) -> OutlierResult:
    """Exact l0 label regularization: the smallest achievable max gradient
    when up to k labels may be dropped, found by binary search over the
    terminal-pair gradients with a minimum-vertex-cover feasibility test.

    A cut-off round settles the search when the cover at its lowest
    candidate has more than k vertices: the optimum then lies above it,
    where every entry is exact. Otherwise the next round goes lower. At k of
    at least |T| - 1 the optimum is 0 (any one terminal is an independent
    set), so the search takes the unbounded matrix at once."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    require_well_posed(g, v0)
    evaluations = 0

    def cover_at(grad: np.ndarray, alpha: float) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return _min_cover(definitely_greater(grad, alpha))

    for terminals, grad, floor in _gradient_rounds(g, v0, k < v0.terminals().shape[0] - 1):
        candidates = _candidates(grad, floor)
        lo, hi = 0, len(candidates) - 1
        if floor > -np.inf:
            if not candidates.size or cover_at(grad, candidates[0]).sum() <= k:
                continue
            lo = 1
        # no entry is definitely greater than the top candidate: its cover is empty
        best_cover = np.zeros(terminals.shape[0], dtype=bool)
        while lo < hi:
            mid = (lo + hi) // 2
            cover = cover_at(grad, candidates[mid])
            if cover.sum() <= k:
                hi = mid
                best_cover = cover
            else:
                lo = mid + 1
        return _complete(g, v0, terminals, grad, best_cover, evaluations, float(candidates[hi]))


def outlier_approx(g: Graph, v0: PartialAssignment, k: int) -> OutlierResult:
    """Greedy 2k-removal approximation: up to k rounds, each dropping both
    ends of the steepest pair of kept terminals (the row-major first on
    ties), then the completion of ``outlier_exact``. Stops early once no
    kept pair has a positive gradient. Achieves the k-budget optimum
    gradient with at most 2k removals.

    Every pair the greedy takes is at least as steep as the kept maximum it
    leaves, so a cut-off matrix settles it when that maximum lies at or
    above its floor; otherwise the next round goes lower."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    require_well_posed(g, v0)
    for terminals, grad, floor in _gradient_rounds(g, v0):
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
        if grad[np.ix_(~drop, ~drop)].max(initial=0.0) >= floor:
            return _complete(g, v0, terminals, grad, drop, rounds)
