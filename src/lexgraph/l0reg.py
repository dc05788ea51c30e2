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
graph plus König's construction; binary search over the matrix entries
finds the threshold. Approximate: drop both ends of the steepest kept pair, k times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DISTINCT_TOL,
    Graph,
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
