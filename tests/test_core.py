import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgraph import (
    Graph,
    GraphFormatError,
    LexOrder,
    MissingValueError,
    PartialAssignment,
    check_well_posed,
    enumerate_terminal_gradients,
    gradient,
    lex_compare,
)
from lexgraph import core
from lexgraph.oracles import apsp_floyd_warshall

from conftest import random_directed_instance, random_instance


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 0, 1.0)])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_length(self, bad):
        with pytest.raises(GraphFormatError):
            Graph(2, [(0, 1, bad)])

    def test_parallel_edges_collapse_to_min(self):
        g = Graph(2, [(0, 1, 3.0), (1, 0, 1.5), (0, 1, 2.0)])
        assert g.m == 1
        assert g.edge_len[0] == 1.5

    def test_directed_keeps_both_orientations(self):
        g = Graph(2, [(0, 1, 3.0), (1, 0, 1.5)], directed=True)
        assert g.m == 2

    def test_undirected_symmetric_lookup(self):
        g = Graph(2, [(0, 1, 2.0)])
        assert g.edge_between(0, 1) == g.edge_between(1, 0)


class TestGradient:
    def test_unit_case(self):
        g = Graph(2, [(0, 1, 1.0)])
        v = PartialAssignment([1.0, 0.0])
        assert gradient(g, v, (0, 1)) == 1.0

    def test_equal_values(self):
        g = Graph(2, [(0, 1, 1.0)])
        assert gradient(g, PartialAssignment([0.4, 0.4]), (0, 1)) == 0.0

    def test_direct_formula(self):
        g = Graph(2, [(0, 1, 8.0)])
        assert gradient(g, PartialAssignment([4.0, 0.0]), (0, 1)) == 0.5

    def test_free_endpoint_errors(self):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(MissingValueError):
            gradient(g, PartialAssignment([1.0, None]), (0, 1))

    def test_antisymmetry(self):
        g = Graph(2, [(0, 1, 2.0)])
        v = PartialAssignment([0.3, -0.9])
        assert gradient(g, v, (0, 1)) == -gradient(g, v, (1, 0))


class TestLexCompare:
    def test_equal_as_multisets(self):
        assert lex_compare([1.0, -2.0], [2.0, 1.0]) is LexOrder.EQUAL

    def test_less_at_rank_one(self):
        assert lex_compare([0.5, 0.5], [1.0, 0.0]) is LexOrder.LESS

    def test_greater_at_rank_one(self):
        assert lex_compare([3.0, 0.0], [2.0, 2.0]) is LexOrder.GREATER

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_compare([1.0], [1.0, 2.0])

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8),
        st.data(),
    )
    def test_total_preorder(self, a, data):
        b = data.draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=len(a), max_size=len(a)))
        fwd = lex_compare(a, b)
        rev = lex_compare(b, a)
        flip = {LexOrder.LESS: LexOrder.GREATER, LexOrder.GREATER: LexOrder.LESS, LexOrder.EQUAL: LexOrder.EQUAL}
        assert rev is flip[fwd]

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8))
    def test_reflexive_equal(self, a):
        assert lex_compare(a, a) is LexOrder.EQUAL

    def test_permutation_and_sign_invariance(self):
        assert lex_compare([0.5, -1.0, 2.0], [-2.0, 1.0, 0.5]) is LexOrder.EQUAL


class TestWellPosed:
    def test_single_terminal_per_component_ok(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert check_well_posed(g, PartialAssignment([0.0, None, None])).ok

    def test_unlabeled_component_reported(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        report = check_well_posed(g, PartialAssignment([0.0, None, None, None]))
        assert not report.ok
        assert (2, 3) in report.unlabeled_components

    def test_directed_chain_ok_then_defect(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        v0 = PartialAssignment([0.0, None, 1.0])
        assert check_well_posed(g, v0).ok
        flipped = Graph(3, [(0, 1, 1.0), (2, 1, 1.0)], directed=True)
        report = check_well_posed(flipped, v0)
        assert not report.ok and report.stranded_vertices == (1,)

    def test_complete_assignment_always_ok(self):
        for seed in range(5):
            g, _ = random_instance(seed)
            full = PartialAssignment(np.linspace(0, 1, g.n))
            assert check_well_posed(g, full).ok


class TestTerminalPairDistances:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_row_chunks_match_one_call(self, seed, monkeypatch):
        calls = []
        scipy_dijkstra = core._scipy_dijkstra

        def counted(indptr, indices, data, sources, **kw):
            calls.append(len(sources))
            return scipy_dijkstra(indptr, indices, data, sources, **kw)

        monkeypatch.setattr(core, "_scipy_dijkstra", counted)
        for g, v0 in (random_instance(seed, terminal_range=(3, 8)), random_directed_instance(seed + 700)):
            monkeypatch.setattr(core, "PAIR_DISTANCE_BYTES", 1 << 40)
            terminals, whole = core.terminal_pair_distances(g, v0)
            assert len(calls) == 1
            monkeypatch.setattr(core, "PAIR_DISTANCE_BYTES", 1)
            chunk_terminals, chunked = core.terminal_pair_distances(g, v0)
            assert calls[1:] == [1] * terminals.shape[0]
            assert np.array_equal(chunk_terminals, terminals)
            assert np.array_equal(chunked, whole)
            calls.clear()


class TestEnumerateTerminalGradients:
    def test_single_terminal_empty(self):
        g = Graph(2, [(0, 1, 1.0)])
        assert enumerate_terminal_gradients(g, PartialAssignment([0.0, None])).size == 0

    def test_path_pair_both_signs(self, path3):
        g, v0 = path3
        grads = enumerate_terminal_gradients(g, v0)
        assert np.allclose(grads, [-0.5, 0.5])

    def test_matches_apsp_oracle(self):
        g, v0 = random_instance(3, n_range=(8, 8), terminal_range=(3, 3))
        dist = apsp_floyd_warshall(g)
        terms = v0.terminals()
        expected = set()
        for s in terms:
            for t in terms:
                if s != t and np.isfinite(dist[s, t]) and dist[s, t] > 0:
                    expected.add(round((v0.values[s] - v0.values[t]) / dist[s, t], 9))
        got = enumerate_terminal_gradients(g, v0)
        assert {round(float(x), 9) for x in got} == expected
        assert np.all(np.diff(got) > 0)


def _sequential_distinct(values, tol=1e-12):
    """The one-value-at-a-time dedup that ``core.sorted_distinct`` replaces."""
    keep = []
    for x in np.unique(values).tolist():
        if not keep or x - keep[-1] > tol * core.rel_scale(x, keep[-1]):
            keep.append(x)
    return np.asarray(keep, dtype=np.float64)


class TestSortedDistinct:
    def test_chain_of_near_ties_keeps_every_other(self):
        # each step is below tol, two steps are not: the sequential test keeps
        # the values whose gap to the last kept one exceeds tol
        tol = 1e-12
        vals = np.array([1.0, 1.0 + 0.6e-12, 1.0 + 1.2e-12, 1.0 + 1.8e-12, 5.0])
        assert np.array_equal(core.sorted_distinct(vals, tol), _sequential_distinct(vals, tol))
        assert core.sorted_distinct(vals, tol).shape[0] == 3

    def test_empty_and_single(self):
        assert core.sorted_distinct(np.array([])).shape == (0,)
        assert np.array_equal(core.sorted_distinct(np.array([2.0, 2.0])), [2.0])

    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=30),
        st.lists(st.tuples(st.integers(0, 29), st.floats(-3.0, 3.0)), max_size=40),
    )
    def test_matches_sequential_loop_on_planted_near_ties(self, base, ties):
        """Each planted value sits within a few tol of a base value, relative
        to its scale, so runs of near-ties of every length appear."""
        tol = 1e-12
        planted = [base[i] + step * tol * max(1.0, abs(base[i])) for i, step in ties if i < len(base)]
        vals = np.array(base + planted, dtype=np.float64)
        assert np.array_equal(core.sorted_distinct(vals, tol), _sequential_distinct(vals, tol))
