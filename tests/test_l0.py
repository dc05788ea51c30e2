import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from lexgraph import (
    Graph,
    PartialAssignment,
    check_well_posed,
    comp_inf_min,
    core,
    inf_norm_of,
    outlier_approx,
    outlier_exact,
)
from lexgraph import envelopes, l0reg, synth
from lexgraph.envelopes import _sweep_extend
from lexgraph.oracles import apsp_floyd_warshall, brute_min_vc, brute_outlier

from conftest import (
    arc_matrix,
    heap_dijkstra,
    is_acyclic,
    is_transitively_closed,
    random_dag,
    random_directed_instance,
    random_instance,
    reference_outlier,
    transitive_closure,
)


class TestTermPressureGraph:
    """The pressure graph over terminals that ``outlier_exact`` covers: arc
    (s, t) iff ``definitely_greater(grad, alpha)`` on the terminal gradient
    matrix, cut off at alpha when alpha is above 0."""

    def test_no_arcs_above_max(self, path3):
        g, v0 = path3
        _, grad = core.terminal_gradient_matrix(g, v0, above=0.6)
        assert not core.definitely_greater(grad, 0.6).any()

    def test_negative_alpha_gives_arc_high_to_low(self, path3):
        g, v0 = path3
        terminals, grad = core.terminal_gradient_matrix(g, v0, above=-1.0)
        assert terminals.tolist() == [0, 2]
        assert core.definitely_greater(grad, -1.0)[1, 0]  # value 1 toward value 0

    def test_matches_apsp_oracle(self):
        g, v0 = random_instance(7, n_range=(12, 12), terminal_range=(5, 5))
        dist = apsp_floyd_warshall(g)
        terms = v0.terminals()
        for alpha in (0.0, 0.2, 0.5):
            expected = np.zeros((terms.size, terms.size), dtype=bool)
            for i, s in enumerate(terms):
                for j, t in enumerate(terms):
                    if s != t and np.isfinite(dist[s, t]) and dist[s, t] > 0:
                        expected[i, j] = (v0.values[s] - v0.values[t]) / dist[s, t] > alpha + 1e-12
            terminals, grad = core.terminal_gradient_matrix(g, v0, above=alpha)
            assert np.array_equal(terminals, terms)
            assert np.array_equal(core.definitely_greater(grad, alpha), expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_always_tc_dag(self, seed):
        """``_min_cover``'s precondition."""
        g, v0 = random_instance(seed, terminal_range=(4, 8))
        for alpha in (0.0, 0.1, 0.4):
            adj = core.definitely_greater(core.terminal_gradient_matrix(g, v0, above=alpha)[1], alpha)
            assert is_acyclic(adj)
            assert is_transitively_closed(adj)

    def test_submonotone_in_alpha(self):
        g, v0 = random_instance(19, terminal_range=(5, 8))
        big = core.definitely_greater(core.terminal_gradient_matrix(g, v0, above=0.1)[1], 0.1)
        small = core.definitely_greater(core.terminal_gradient_matrix(g, v0, above=0.5)[1], 0.5)
        assert not (small & ~big).any()


class TestMinVertexCover:
    """``l0reg._min_cover``, the cover ``outlier_exact`` runs, on boolean
    adjacencies of transitively closed DAGs."""

    def test_empty(self):
        assert not l0reg._min_cover(np.zeros((3, 3), dtype=bool)).any()

    def test_single_arc(self):
        assert l0reg._min_cover(arc_matrix(2, {(0, 1)})).sum() == 1

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_bitmask_oracle(self, seed):
        n, arcs = random_dag(seed)
        tc = transitive_closure(n, arcs)
        cover = l0reg._min_cover(arc_matrix(n, tc))
        ref = brute_min_vc(n, tc)
        assert cover.sum() == len(ref)
        assert all(cover[u] or cover[v] for u, v in tc)

    @pytest.mark.parametrize("seed", range(10))
    def test_cover_size_equals_max_matching(self, seed):
        n, arcs = random_dag(seed + 100)
        adj = arc_matrix(n, transitive_closure(n, arcs))
        cover = l0reg._min_cover(adj)
        matching = int((maximum_bipartite_matching(csr_matrix(adj), perm_type="column") >= 0).sum())
        assert cover.sum() == matching


class TestOutlierExact:
    def test_k0_equals_inf_min(self):
        g, v0 = random_instance(13)
        res = outlier_exact(g, v0, 0)
        ref = comp_inf_min(g, v0, seed=0)
        assert res.removed == frozenset()
        assert res.alpha == pytest.approx(ref.inf_norm, abs=1e-12)
        assert np.abs(res.result.assignment - ref.assignment).max() < 1e-9

    def test_single_outlier_path(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        v0 = PartialAssignment([0.0, 10.0, 0.0])
        res = outlier_exact(g, v0, 1)
        assert res.removed == frozenset({1})
        assert res.alpha == pytest.approx(0.0, abs=1e-12)
        assert res.result.inf_norm == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_subset_oracle(self, seed):
        g, v0 = random_instance(seed, n_range=(6, 10), terminal_range=(3, 8))
        for k in (1, 2):
            alpha_ref, _ = brute_outlier(g, v0, k)
            res = outlier_exact(g, v0, k)
            assert res.alpha == pytest.approx(alpha_ref, abs=1e-10)
            assert len(res.removed) <= k
            assert res.result.inf_norm <= alpha_ref + 1e-9

    def test_budget_monotone(self):
        g, v0 = random_instance(31, terminal_range=(6, 8))
        alphas = [outlier_exact(g, v0, k).alpha for k in range(4)]
        for a, b in zip(alphas, alphas[1:]):
            assert b <= a + 1e-12

    def test_budget_beyond_terminal_count(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        v0 = PartialAssignment([0.0, 5.0, -3.0, 2.0])
        res = outlier_exact(g, v0, 100)
        assert res.alpha == pytest.approx(0.0, abs=1e-12)
        assert res.result.inf_norm == pytest.approx(0.0, abs=1e-9)

    def test_cover_feasibility_end_to_end(self):
        for seed in range(10):
            g, v0 = random_instance(seed + 60, terminal_range=(4, 8))
            res = outlier_exact(g, v0, 2)
            # the assignment must keep every surviving label and meet alpha
            kept = [t for t in v0.terminals() if int(t) not in res.removed]
            assert all(res.result.assignment[t] == v0.values[t] for t in kept)
            assert inf_norm_of(g, res.result.assignment) <= res.alpha + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_directed_matches_subset_oracle(self, seed):
        """Seeds 500-503 and 507 remove labels that strand free vertices, so
        ``_sweep_extend`` raises or lowers some of them; kept labels stay exact."""
        g, v0 = random_directed_instance(seed + 500, terminal_range=(3, 6))
        for k in (1, 2):
            alpha_ref, _ = brute_outlier(g, v0, k)
            res = outlier_exact(g, v0, k)
            assert res.alpha == pytest.approx(alpha_ref, abs=1e-10)
            assert res.result.inf_norm <= alpha_ref + 1e-9
            kept = v0.terminal_mask()
            kept[sorted(res.removed)] = False
            assert np.array_equal(res.result.assignment[kept], v0.values[kept])

    def test_directed_removals_strand_vertices(self):
        """The instances of ``test_directed_matches_subset_oracle`` do reach
        the repair envelopes of ``_sweep_extend``."""
        stranded = 0
        for seed in range(8):
            g, v0 = random_directed_instance(seed + 500, terminal_range=(3, 6))
            for k in (1, 2):
                freed = v0.values.copy()
                freed[sorted(outlier_exact(g, v0, k).removed)] = np.nan
                stranded += not check_well_posed(g, PartialAssignment(freed)).ok
        assert stranded == 9

    @pytest.mark.parametrize("kernel", [heap_dijkstra, core._dijkstra], ids=["heap", "scipy"])
    def test_sweep_extend_keeps_labels_exact(self, monkeypatch, kernel):
        """A component left without labels takes 0 (not -0, which the output
        would print as "-0") and starts the repair envelopes; the labels of
        the other component must come out exactly as given, both on the
        reference heap Dijkstra and on the kernel, which shifts start values
        by their minimum."""
        monkeypatch.setattr(envelopes, "_dijkstra", kernel)
        g = Graph(8, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (5, 6, 1.0), (6, 7, 1.0)])
        v0 = PartialAssignment([0.1, None, 0.7, None, -0.3, None, None, None])
        values = _sweep_extend(g, v0, 1.0)
        assert values[[0, 2, 4]].tolist() == [0.1, 0.7, -0.3]
        np.testing.assert_allclose(values[[1, 3]], [0.4, 0.2], rtol=0, atol=1e-15)
        assert values[5:].tolist() == [0.0, 0.0, 0.0] and not np.signbit(values[5:]).any()

    @pytest.mark.parametrize("kernel", [heap_dijkstra, core._dijkstra], ids=["heap", "scipy"])
    def test_sweep_extend_chain_against_id_order(self, monkeypatch, kernel):
        """Terminal 0 (value 5) is reached only by the arc 1 -> 0; the chain
        1 -> k+1 -> k -> ... -> 2 reaches no terminal, and no terminal reaches
        it. Vertex 1 gets its upper bound 5 + 0.01, and the chain falls from
        it with slope alpha. The chain's arcs run against id order, where a
        sweep over the edge list moves one step per pass. The label stays
        exact on the reference heap Dijkstra and on the kernel."""
        monkeypatch.setattr(envelopes, "_dijkstra", kernel)
        k = 40
        lengths = 0.5 + 0.25 * (np.arange(k) % 3)
        chain = [1, k + 1, *range(k, 1, -1)]
        edges = [(1, 0, 1.0)] + [(a, b, float(w)) for a, b, w in zip(chain, chain[1:], lengths)]
        g = Graph(k + 2, edges, directed=True)
        values = _sweep_extend(g, PartialAssignment([5.0] + [None] * (k + 1)), 0.01)
        assert values[0] == 5.0
        dist = np.concatenate([[0.0], np.cumsum(lengths)])  # d(1, x) along the chain
        np.testing.assert_allclose(values[chain], 5.01 - 0.01 * dist, rtol=0, atol=1e-12)
        assert inf_norm_of(g, values) <= 0.01 + 1e-12


class TestOutlierApprox:
    def test_k0_equals_inf_min(self):
        g, v0 = random_instance(3)
        res = outlier_approx(g, v0, 0)
        assert res.removed == frozenset()
        assert res.result.inf_norm == pytest.approx(comp_inf_min(g, v0, seed=0).inf_norm, abs=1e-9)

    def test_single_outlier_path(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        v0 = PartialAssignment([0.0, 10.0, 0.0])
        res = outlier_approx(g, v0, 1)
        assert len(res.removed) <= 2 and 1 in res.removed
        assert res.result.inf_norm == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_guarantees_vs_exact(self, seed):
        g, v0 = random_instance(seed + 400, n_range=(6, 10), terminal_range=(3, 8))
        for k in (1, 2):
            exact = outlier_exact(g, v0, k)
            approx = outlier_approx(g, v0, k)
            assert len(approx.removed) <= 2 * k
            assert approx.result.inf_norm <= exact.alpha + 1e-9

    def test_pair_scan_after_removals_break_well_posedness(self):
        # round 1 drops both labels of the component {0, 1, 2}, which leaves
        # it unlabeled; round 2 still takes the steepest kept pair {3, 5}
        g = Graph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        v0 = PartialAssignment([0.0, 10.0, None, 0.0, None, 1.0])
        res = outlier_approx(g, v0, 2)
        assert res.removed == frozenset({0, 1, 3, 5})
        assert np.array_equal(res.result.assignment, np.zeros(6))

    def test_greedy_replay_on_oracle_distances(self):
        """Replays the greedy rule on Floyd-Warshall distances: each round
        drops both ends of the steepest pair of kept terminals, the first in
        row-major order on ties, until k rounds are done, fewer than two
        terminals are kept or no kept pair is definitely steeper than 0."""
        for make in (random_instance, random_directed_instance):
            for seed in range(200):
                g, v0 = make(seed)
                terminals = v0.terminals()
                dist = apsp_floyd_warshall(g)[np.ix_(terminals, terminals)]
                vals = v0.values[terminals]
                for k in (1, 2, 3):
                    kept, removed = list(range(terminals.size)), set()
                    for _ in range(k):
                        best = None
                        for i in kept:
                            for j in kept:
                                if 0 < dist[i, j] < np.inf:
                                    grad = (vals[i] - vals[j]) / dist[i, j]
                                    if best is None or grad > best[0]:
                                        best = (grad, i, j)
                        if best is None or not core.definitely_greater(best[0], 0.0):
                            break
                        kept = [x for x in kept if x not in best[1:]]
                        removed |= {int(terminals[best[1]]), int(terminals[best[2]])}
                    assert outlier_approx(g, v0, k).removed == removed, (make.__name__, seed, k)


def _same_outcome(got, ref) -> bool:
    return (
        got.alpha == ref.alpha
        and got.removed == ref.removed
        and got.result.assignment.tobytes() == ref.result.assignment.tobytes()
    )


def _pair_chain(gradients) -> tuple[Graph, PartialAssignment]:
    """One unit edge per gradient, its ends labeled the gradient and 0: no
    path joins two pairs, so every terminal gradient is one of these or
    -inf."""
    k = len(gradients)
    edges = [(2 * i, 2 * i + 1, 1.0) for i in range(k)]
    labels = np.zeros(2 * k)
    labels[0::2] = gradients
    return Graph(2 * k, edges), PartialAssignment(labels)


class TestCutOffRounds:
    """Both l0 solvers read gradient matrices cut off at a shrinking
    threshold; they, and the pressure graph of a matrix cut off at alpha,
    must give what the whole matrix gives."""

    def _radii(self, monkeypatch):
        """The threshold each gradient matrix of a solve is cut off at, 0
        for the unbounded one, recorded by a wrapper."""
        aboves, matrix = [], l0reg.terminal_gradient_matrix

        def recorded(g, v0, above=0.0):
            aboves.append(above)
            return matrix(g, v0, above)

        monkeypatch.setattr(l0reg, "terminal_gradient_matrix", recorded)
        return aboves

    @pytest.mark.parametrize("reached", [l0reg.REACHED, 1.0], ids=["reached", "every-round"])
    @pytest.mark.parametrize("make", [random_instance, random_directed_instance])
    def test_solvers_match_full_matrix_reference(self, make, reached, monkeypatch):
        """100 seeds, k in 0..3 and, on every tenth seed, k at |T| / 2 and
        |T| - 1, where the optimum is 0. A good share of the solves must be
        settled by a cut-off matrix, not by the unbounded one; more of them
        when no round ends the cut-off rounds early, as ``REACHED`` does on
        these small graphs."""
        monkeypatch.setattr(l0reg, "REACHED", reached)
        aboves = self._radii(monkeypatch)
        settled_cut_off = solves = 0
        for seed in range(100):
            g, v0 = make(seed)
            size = v0.terminals().shape[0]
            budgets = [0, 1, 2, 3] + ([size // 2, size - 1] if seed % 10 == 0 else [])
            for k in budgets:
                for solver, exact in ((outlier_exact, True), (outlier_approx, False)):
                    aboves.clear()
                    got = solver(g, v0, k)
                    assert _same_outcome(got, reference_outlier(g, v0, k, exact)), (seed, k, exact)
                    settled_cut_off += aboves[-1] > 0.0
                    solves += 1
        assert settled_cut_off >= solves // (6 if reached < 1.0 else 3)

    @pytest.mark.parametrize("make", [random_instance, random_directed_instance])
    def test_solvers_match_reference_in_two_row_chunks(self, make, monkeypatch):
        """At these sizes every terminal fits one chunk; two rows per chunk
        make the searches of one round stop at different radii, and the
        answers must not change."""
        for seed in range(40):
            g, v0 = make(seed)
            budgets = [0, 1, 2, v0.terminals().shape[0] // 2]
            refs = [reference_outlier(g, v0, k, exact) for k in budgets for exact in (True, False)]
            monkeypatch.setattr(core, "PAIR_DISTANCE_BYTES", 2 * 8 * g.n)
            got = [solver(g, v0, k) for k in budgets for solver in (outlier_exact, outlier_approx)]
            monkeypatch.undo()
            for a, b in zip(got, refs):
                assert _same_outcome(a, b), seed

    @pytest.mark.parametrize("make", [random_instance, random_directed_instance])
    def test_pressure_graph_matches_full_matrix(self, make):
        for seed in range(60):
            g, v0 = make(seed)
            terminals, grad = core.terminal_gradient_matrix(g, v0)
            top = max(float(grad.max(initial=0.0)), 0.0)
            for alpha in (-0.5, 0.0, 0.3 * top, 0.8 * top, top):
                cut_terminals, cut = core.terminal_gradient_matrix(g, v0, above=alpha)
                assert np.array_equal(cut_terminals, terminals)
                assert np.array_equal(
                    core.definitely_greater(cut, alpha), core.definitely_greater(grad, alpha)
                ), (seed, alpha)

    def test_top_gradient_is_the_matrix_maximum(self):
        for make in (random_instance, random_directed_instance):
            for seed in range(60):
                g, v0 = make(seed)
                _, grad = core.terminal_gradient_matrix(g, v0)
                assert core.top_terminal_gradient(g, v0) == max(float(grad.max(initial=0.0)), 0.0)

    def test_constant_labels(self, monkeypatch):
        aboves = self._radii(monkeypatch)
        g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (3, 4, 0.5)])
        v0 = PartialAssignment([0.25, None, 0.25, 0.25, None])
        for k in range(3):
            for solver, exact in ((outlier_exact, True), (outlier_approx, False)):
                got = solver(g, v0, k)
                assert got.alpha == 0.0 and got.removed == frozenset()
                assert _same_outcome(got, reference_outlier(g, v0, k, exact))
        assert aboves == [0.0] * 6  # no positive gradient: no cut-off round

    def test_digraph_pairs_without_a_path(self):
        """Terminal 3 reaches no terminal and no terminal reaches 0 or 4, so
        those pairs have no path and read -inf at every radius."""
        g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 2, 0.5)], directed=True)
        v0 = PartialAssignment([2.0, None, 0.5, 0.0, 1.5])
        assert np.isneginf(core.terminal_gradient_matrix(g, v0)[1]).sum() == 4 + 7
        for k in range(4):
            for solver, exact in ((outlier_exact, True), (outlier_approx, False)):
                assert _same_outcome(solver(g, v0, k), reference_outlier(g, v0, k, exact)), (k, exact)

    def test_near_tie_chain_across_a_shrink_step(self, monkeypatch):
        """Gradients step by 0.4e-12 across the first round's floor, 0.8 of
        the top gradient 1: ``sorted_distinct`` keeps every third of them,
        counted from the chain's bottom. The first round must not start its
        candidates inside the chain, whose representatives it cannot see; the
        optimum at k = 2 is the chain's bottom, below that floor, and the
        second round, which sees the gradient 0.7 below the chain, finds it."""
        floor = l0reg.SHRINK * 1.0
        chain = floor + 0.4e-12 * np.arange(-4, 5)
        assert not core.definitely_greater(chain[1:], chain[:-1], core.DISTINCT_TOL).any()
        g, v0 = _pair_chain([1.0, 0.9, *chain, 0.7, 0.3])
        full = core.sorted_distinct(np.concatenate([[0.0, 0.3, 0.7], chain, [0.9, 1.0]]))
        _, grad = core.terminal_gradient_matrix(g, v0, floor)
        cut = l0reg._candidates(grad, floor)
        assert np.array_equal(cut, [0.9, 1.0])
        # what a list started at the floor would keep is not the whole list's
        above = core.sorted_distinct(chain[chain >= floor])
        assert not np.isin(above, full).all()
        aboves = self._radii(monkeypatch)
        for k in range(5):
            for solver, exact in ((outlier_exact, True), (outlier_approx, False)):
                aboves.clear()
                got = solver(g, v0, k)
                assert _same_outcome(got, reference_outlier(g, v0, k, exact)), (k, exact)
                if exact and k == 2:
                    assert got.alpha == chain[0] and aboves == [floor, floor * l0reg.SHRINK]


def test_l0_search_calls_are_cut_off(monkeypatch):
    """Work counts of seeded l0 solves, which hold on any host: the scipy
    Dijkstra calls of the search, one row of the top-gradient search
    unbounded (no gradient is known before it) and every later one stopped
    at a finite radius. A solve that fell back to the unbounded matrix would
    add an unbounded call."""
    scipy_dijkstra, calls = core._scipy_dijkstra, []

    def counted(indptr, indices, data, sources, predecessors=False, limit=np.inf):
        if not predecessors:  # the completion's envelopes ask for parents
            calls.append((len(sources), limit))
        return scipy_dijkstra(indptr, indices, data, sources, predecessors, limit)

    inst = synth.random_regular(2000, 4, 100, seed=0)
    g, v0 = inst.graph, inst.assignment()
    monkeypatch.setattr(core, "_scipy_dijkstra", counted)
    for solver, rounds in ((outlier_exact, 4), (outlier_approx, 3)):
        calls.clear()
        solver(g, v0, 10)
        top_search = [1, 2, 4, 8, 16, 32, 36]  # the 99 labels above the lowest
        assert [n for n, _ in calls] == top_search + [100] * rounds
        assert calls[0][1] == np.inf
        assert all(np.isfinite(limit) for _, limit in calls[1:])

    # 25 rows per chunk: each round runs 4 chunks, the first at the radius
    # of the highest label, the next ones no farther and the last nearer
    monkeypatch.setattr(core, "PAIR_DISTANCE_BYTES", 8 * g.n * 25)
    vals = v0.values[v0.terminals()]
    top = core.top_terminal_gradient(g, v0)
    for solver, rounds in ((outlier_exact, 4), (outlier_approx, 3)):
        calls.clear()
        solver(g, v0, 10)
        top_search = [1, 2, 4, 8, 16, 25, 25, 18]
        assert [n for n, _ in calls] == top_search + [25] * (4 * rounds)
        chunks = calls[len(top_search) :]
        for step in range(1, rounds + 1):
            limits = [limit for _, limit in chunks[4 * (step - 1) : 4 * step]]
            radius = (vals.max() - vals.min()) / (top * l0reg.SHRINK**step) * (1.0 + core._RADIUS_SLACK)
            assert limits[0] == radius
            assert all(a >= b for a, b in zip(limits, limits[1:])) and limits[-1] < radius


@pytest.mark.slow
def test_l0_thousand_terminals_within_a_second():
    inst = synth.random_regular(20000, 4, 1000, seed=0)
    g, v0 = inst.graph, inst.assignment()
    for solver in (outlier_exact, outlier_approx):
        t0 = time.perf_counter()
        solver(g, v0, 10)
        assert time.perf_counter() - t0 <= 1.0, solver.__name__
