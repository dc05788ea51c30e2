import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgraph import (
    Graph,
    GraphFormatError,
    NoTerminalPathError,
    PartialAssignment,
    check_well_posed,
)
from lexgraph import core
from lexgraph.oracles import apsp_floyd_warshall
from lexgraph.synth import _repair_pairs

from conftest import (
    LexOrder,
    enumerate_terminal_gradients,
    lex_compare,
    random_directed_instance,
    random_instance,
    reference_edge_ids,
    reference_graph_arrays,
    reference_repair_pairs,
)


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

    @pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1, 1.0, 2.0)], [0, 1, 1.0]], ids=["pair", "quad", "flat"])
    def test_rejects_rows_that_are_not_triples(self, edges):
        with pytest.raises(GraphFormatError, match="triples"):
            Graph(2, edges)

    def test_undirected_symmetric_lookup(self):
        g = Graph(2, [(0, 1, 2.0)])
        assert g.edge_ids(0, 1) == g.edge_ids(1, 0)


def _as_form(triples, form):
    """The same edges as a list of triples, an (m, 3) array or a zip iterator."""
    if form == "array":
        return np.array(triples, dtype=np.float64).reshape(-1, 3)
    if form == "zip":
        return zip(*zip(*triples)) if triples else zip()
    return list(triples)


def _random_triples(seed):
    """(n, triples) with many parallel edges, in both orientations, of
    different lengths; no self-loops."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    m = int(rng.integers(1, 80))
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, n, m)) % n
    lengths = rng.choice([0.25, 0.5, 1.0, 1.5, 2.0], size=m) * rng.choice([1.0, 1.0 + 1e-12], size=m)
    return n, list(zip(u.tolist(), v.tolist(), lengths.tolist()))


class TestGraphParity:
    """The vectorized build against the per-edge dict loop it replaced."""

    @pytest.mark.parametrize("form", ["triples", "array", "zip"])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference(self, seed, directed, form):
        n, triples = _random_triples(seed)
        g = Graph(n, _as_form(triples, form), directed=directed)
        for got, want in zip((g.edge_u, g.edge_v, g.edge_len), reference_graph_arrays(n, triples, directed)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("form", ["triples", "array", "zip"])
    @pytest.mark.parametrize("n, triples", [(0, []), (3, []), (2, [(1, 0, 0.5)])], ids=["n0", "m0", "m1"])
    def test_tiny(self, n, triples, form):
        for directed in (False, True):
            g = Graph(n, _as_form(triples, form), directed=directed)
            assert g.n == n
            for got, want in zip((g.edge_u, g.edge_v, g.edge_len), reference_graph_arrays(n, triples, directed)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("form", ["triples", "array", "zip"])
    @pytest.mark.parametrize(
        "first, later",
        [
            ((0, 5, 1.0), (2, 2, 1.0)),
            ((-1, 2, 0.0), (1, 2, -1.0)),
            ((2, 2, 1.0), (0, 9, 1.0)),
            ((1, 1, float("nan")), (1, 2, 0.0)),
            ((0, 1, 0.0), (3, 3, 1.0)),
            ((2, 0, float("inf")), (7, 0, 1.0)),
            ((1, 2, -0.5), (0, 0, float("nan"))),
            ((float("nan"), 1, 1.0), (0, 0, 1.0)),
            ((1, float("inf"), 1.0), (1, 1, 1.0)),
            ((0.5, 1, 1.0), (1, 2, 0.0)),
        ],
        ids=[
            "range", "range+length", "self-loop", "self-loop+length", "zero", "inf", "negative",
            "nan-id", "inf-id", "fractional-id",
        ],
    )
    def test_first_bad_edge_message(self, first, later, form):
        triples = [(0, 1, 1.0), (1, 2, 2.0), first, (0, 2, 1.0), later]
        with pytest.raises(GraphFormatError) as want:
            reference_graph_arrays(3, triples)
        with pytest.raises(GraphFormatError) as got:
            Graph(3, _as_form(triples, form))
        assert str(got.value) == str(want.value)


class TestEdgeIds:
    """The sorted-key search against a dict over every edge."""

    @staticmethod
    def _check_all_pairs(g):
        ids = np.arange(-2, g.n + 3)
        u, v = (a.ravel() for a in np.meshgrid(ids, ids))
        got = g.edge_ids(u, v)
        assert got.dtype == np.int64 and got.tolist() == reference_edge_ids(g, u, v)

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed, directed):
        n, triples = _random_triples(seed)
        g = Graph(n, triples, directed=directed)
        self._check_all_pairs(g)
        rng = np.random.default_rng(seed)
        self._check_all_pairs(g.induced_subgraph(np.flatnonzero(rng.random(n) < 0.6))[0])
        self._check_all_pairs(g.with_edge_mask(rng.random(g.m) < 0.5))

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_out_of_range_ids_do_not_alias(self, directed):
        n = 5
        g = Graph(n, [(1, 2, 1.0), (1, 4, 2.0)], directed=directed)
        assert g.edge_ids(1, 2) == 0 and g.edge_ids(1, 4) == 1
        # (0, n + 2) has the key of (1, 2); (2, -1) has the key of (1, 4)
        assert g.edge_ids(0, n + 2) == -1 and g.edge_ids(n + 2, 0) == -1
        assert g.edge_ids(2, -1) == -1 and g.edge_ids(-1, 2) == -1
        assert g.edge_ids(n, n) == -1

    @pytest.mark.parametrize("n", [0, 3], ids=["n0", "m0"])
    def test_no_edges(self, n):
        for directed in (False, True):
            g = Graph(n, [], directed=directed)
            assert g.edge_ids(0, 1) == -1
            assert g.edge_ids(np.array([0, 1, 2]), np.array([1, 2, 0])).tolist() == [-1, -1, -1]
            assert g.edge_ids(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).shape == (0,)

    def test_scalar_and_array_inputs(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 0.5), (1, 2, 2.0)])
        assert g.edge_ids(3, 2).shape == () and int(g.edge_ids(3, 2)) == 2
        assert g.edge_ids(np.array([[1, 0], [3, 0]]), 2).tolist() == [[1, -1], [2, -1]]
        assert g.edge_ids([0, 2, 1], [1, 1, 3]).tolist() == [0, 1, -1]

    def test_path_lengths(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 0.5), (1, 2, 2.0)])
        assert g.path_lengths([3, 2, 1, 0, 1]) == [0.5, 2.0, 1.0, 1.0]
        assert g.path_lengths([2]) == []
        with pytest.raises(NoTerminalPathError, match=r"path step \(1,3\) is not an edge"):
            g.path_lengths([0, 1, 3])


class TestRepairPairs:
    """``synth``'s vectorized repair against the per-pair loop it replaced."""

    # 6 vertices of degree 5 and 8 of degree 7 can only become K6 and K8, so
    # their repair runs many rounds
    @pytest.mark.parametrize(
        "n, degree", [(50, 4), (1000, 4), (3000, 6), (6, 5), (8, 7)], ids=["50", "1000", "3000d6", "6d5", "8d7"]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference(self, n, degree, seed):
        stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
        np.random.default_rng(seed).shuffle(stubs)
        got, want = stubs.reshape(-1, 2), stubs.reshape(-1, 2).copy()
        rng_got, rng_want = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        assert _repair_pairs(got, rng_got) == reference_repair_pairs(want, rng_want)
        assert np.array_equal(got, want)
        assert rng_got.integers(2**63) == rng_want.integers(2**63)

    def test_empty(self):
        assert _repair_pairs(np.zeros((0, 2), dtype=np.int64), np.random.default_rng(0))


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

    def test_many_unlabeled_components(self):
        """Components come grouped in one sort, in order of their smallest
        vertex; the one-line description names the first 20 of them."""
        rng = np.random.default_rng(0)
        n = 4000
        perm = rng.permutation(n)
        g = Graph(n, [(int(a), int(b), 1.0) for a, b in perm.reshape(-1, 2)])
        vals = [None] * n
        vals[int(perm[0])] = 0.0
        report = check_well_posed(g, PartialAssignment(vals))
        want = sorted(tuple(sorted(map(int, pair))) for pair in perm.reshape(-1, 2)[1:])
        assert report.unlabeled_components == tuple(want)
        text = report.describe()
        assert text.count("{") == 20 and text.endswith(f", … and {len(want) - 20} more")
        assert text.startswith("components without a terminal: {" + ",".join(map(str, want[0])) + "}, ")

    def test_stranded_vertices_description_is_capped(self):
        report = core.WellPosednessReport(False, stranded_vertices=tuple(range(25)))
        assert report.describe() == (
            "free vertices on no terminal-to-terminal path: [" + ", ".join(map(str, range(20))) + ", … and 5 more]"
        )
        short = core.WellPosednessReport(False, stranded_vertices=(3, 4))
        assert short.describe() == "free vertices on no terminal-to-terminal path: [3, 4]"

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

        # built first: the directed generator's well-posedness check runs scipy too
        instances = (random_instance(seed, terminal_range=(3, 8)), random_directed_instance(seed + 700))
        monkeypatch.setattr(core, "_scipy_dijkstra", counted)
        for g, v0 in instances:
            monkeypatch.setattr(core, "PAIR_DISTANCE_BYTES", 1 << 40)
            terminals, whole = core.terminal_pair_distances(g, v0)
            assert len(calls) == 1
            monkeypatch.setattr(core, "PAIR_DISTANCE_BYTES", 1)
            chunk_terminals, chunked = core.terminal_pair_distances(g, v0)
            assert calls[1:] == [1] * terminals.shape[0]
            assert np.array_equal(chunk_terminals, terminals)
            assert np.array_equal(chunked, whole)
            calls.clear()

    @pytest.mark.parametrize("seed", range(6))
    def test_limit_keeps_entries_within_it_bitwise(self, seed, monkeypatch):
        """Each search stops at the limit: an entry at most the limit is the
        unbounded one bit for bit, and every farther one reads inf, in one
        call and in one-row chunks alike."""
        for g, v0 in (random_instance(seed, terminal_range=(3, 8)), random_directed_instance(seed + 700)):
            _, whole = core.terminal_pair_distances(g, v0)
            finite = np.unique(whole[np.isfinite(whole) & (whole > 0)])
            for limit in (0.0, *finite[[0, finite.shape[0] // 2, -1]], 0.5 * (finite[0] + finite[-1])):
                expected = np.where(whole <= limit, whole, np.inf)
                for budget in (1 << 40, 1):
                    monkeypatch.setattr(core, "PAIR_DISTANCE_BYTES", budget)
                    _, cut = core.terminal_pair_distances(g, v0, limit)
                    assert np.array_equal(cut, expected), (limit, budget)
                    assert np.array_equal(cut.view(np.int64), expected.view(np.int64))


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
        if not keep or x - keep[-1] > tol * max(1.0, abs(x), abs(keep[-1])):
            keep.append(x)
    return np.asarray(keep, dtype=np.float64)


class TestDefinitelyGreater:
    VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-12, 0.5, -0.5, 1.0, 1.0 + 1e-9, 3.0, -7e5]

    @staticmethod
    def _numpy(a, b, tol):
        """The test in numpy, under the error-state context it ran in on every call."""
        with np.errstate(invalid="ignore"):
            return np.asarray(a) - b > tol * np.maximum(np.maximum(abs(np.asarray(a)), abs(b)), 1.0)

    @pytest.mark.parametrize("tol", [core.DEFAULT_TOL, 1e-12, 0.0])
    def test_every_input_kind_agrees_without_warnings(self, tol):
        """Python floats, numpy scalars and arrays, with finite, infinite and
        NaN values on either side and tol 0, give the numpy answer; a
        RuntimeWarning would fail the test."""
        grid = np.array(self.VALUES)
        for b in self.VALUES:
            expected = self._numpy(grid, b, tol)
            assert np.array_equal(core.definitely_greater(grid, b, tol), expected)
            assert np.array_equal(core.definitely_greater(grid, np.full_like(grid, b), tol), expected)
            assert np.array_equal(core.definitely_greater(np.float64(b), grid, tol), self._numpy(b, grid, tol))
            for a, want in zip(self.VALUES, expected.tolist()):
                assert core.definitely_greater(a, b, tol) == want, (a, b)
                assert core.definitely_greater(np.float64(a), b, tol) == want, (a, b)
                assert core.definitely_greater(a, np.float64(b), tol) == want, (a, b)


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
