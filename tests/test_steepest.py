import math
import subprocess
import sys

import numpy as np
import pytest

from lexgraph import (
    DEFAULT_TOL,
    Graph,
    LexgraphError,
    NoTerminalPathError,
    PartialAssignment,
    PressureSubgraph,
    steepest_path,
    vertex_steepest_path,
)
import lexgraph.steepest
from lexgraph.oracles import apsp_floyd_warshall, brute_steepest_path

from conftest import random_directed_instance, random_instance, reference_two_sided_star


def star_brute(values, dists):
    best = None
    for i in range(len(values)):
        for j in range(len(values)):
            if i == j:
                continue
            grad = (values[i] - values[j]) / (dists[i] + dists[j])
            if best is None or grad > best[0] + 1e-12:
                best = (grad, i, j)
    return best


class TestStar:
    """The one-sided star search: ``_two_sided_star`` with the star's
    terminals, ids their indices, on both sides."""

    def test_two_terminals(self):
        v, d, ids = np.array([0.0, 1.0]), np.ones(2), np.arange(2)
        assert lexgraph.steepest._two_sided_star(v, d, ids, v, d, ids, DEFAULT_TOL) == (1, 0, 0.5)

    def test_constant_values(self):
        """Nothing slopes down, so there is no answer."""
        v, d, ids = np.full(5, 0.3), np.ones(5), np.arange(5)
        assert lexgraph.steepest._two_sided_star(v, d, ids, v, d, ids, DEFAULT_TOL) is None

    def test_needs_two_terminals(self):
        v, d, ids = np.ones(1), np.ones(1), np.arange(1)
        assert lexgraph.steepest._two_sided_star(v, d, ids, v, d, ids, DEFAULT_TOL) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_quadratic_scan(self, seed):
        rng = np.random.default_rng(seed)
        v, d = np.array([(rng.uniform(-2, 2), rng.uniform(0.1, 3.0)) for _ in range(50)]).T
        ids = np.arange(50)
        a, b, grad = lexgraph.steepest._two_sided_star(v, d, ids, v, d, ids, DEFAULT_TOL)
        assert a != b and grad == (v[a] - v[b]) / (d[a] + d[b])
        assert grad == pytest.approx(star_brute(v, d)[0], abs=1e-9)

    def test_repeated_calls_return_the_same_pair(self):
        rng = np.random.default_rng(77)
        v, d = np.array([(rng.uniform(-1, 1), rng.uniform(0.1, 2.0)) for _ in range(200)]).T
        ids = np.arange(200)
        assert len({lexgraph.steepest._two_sided_star(v, d, ids, v, d, ids, DEFAULT_TOL) for _ in range(10)}) == 1


def two_sided_case(seed: int):
    """A two-sided star with integer values and lengths, so that gradients
    tie exactly, and ids overlapping across the sides, where an id on both
    sides has one value, as in a vertex-steepest search. On even seeds the
    id of side A's largest value is also the id of side B's smallest, at
    its first entry, so the argmax and the argmin clash at lambda 0 and
    nothing slopes down."""
    rng = np.random.default_rng(seed)
    n_a, n_b = (int(k) for k in rng.integers(1, 12, size=2))
    pool = max(n_a, n_b) + int(rng.integers(0, 4))
    ia, ib = rng.choice(pool, n_a, replace=False), rng.choice(pool, n_b, replace=False)
    va, vb = rng.integers(-4, 5, n_a).astype(float), rng.integers(-4, 5, n_b).astype(float)
    da, db = rng.integers(1, 4, n_a).astype(float), rng.integers(1, 4, n_b).astype(float)
    if seed % 2 == 0:
        a = int(va.argmax())
        ib[ib == ia[a]] = ib[0]
        ib[0] = ia[a]
        vb = np.maximum(vb, va[a])
    value = dict(zip(ia.tolist(), va.tolist()))
    vb = np.array([value.get(t, v) for t, v in zip(ib.tolist(), vb.tolist())])
    return va, da, ia, vb, db, ib


class _PassCounter(np.ndarray):
    """Lengths that count the products lambda * lengths taken from them."""

    passes = 0

    def __rmul__(self, scalar):
        self.passes += 1
        return scalar * self.view(np.ndarray)


class TestTwoSidedStar:
    @pytest.mark.parametrize("block", range(10))
    def test_matches_exhaustive_scan(self, block):
        for seed in range(100 * block, 100 * (block + 1)):
            case = two_sided_case(seed)
            assert lexgraph.steepest._two_sided_star(*case, DEFAULT_TOL) == reference_two_sided_star(*case), seed

    def test_iterations_bounded_when_every_pair_nearly_ties(self):
        """Side A at 3 + g d, side B at 3 - g d, with noise of at most 1e-12
        and distinct ids: every pair's gradient is within 1e-12 of g. Each
        pass of the iteration scales side A's lengths by lambda once, which
        ``_PassCounter`` counts."""
        n, g = 10_000, 0.7
        rng = np.random.default_rng(5)
        ia, ib = np.split(rng.permutation(2 * n), 2)
        da, db = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
        va = 3.0 + g * da + rng.uniform(-1e-12, 1e-12, n)
        vb = 3.0 - g * db + rng.uniform(-1e-12, 1e-12, n)
        counted = da.view(_PassCounter)
        got = lexgraph.steepest._two_sided_star(va, counted, ia, vb, db, ib, DEFAULT_TOL)
        assert 2 <= counted.passes <= 8
        assert got == reference_two_sided_star(va, da, ia, vb, db, ib)

    def test_tie_break_keeps_the_maximum(self):
        """Pair (0, 2) has the largest gradient, 1 / 2; pair (1, 2) falls
        short of it by 2e-10, within the tolerance, and has the smaller ids,
        so the search returns it, with the maximum as the gradient."""
        va, da, ia = np.array([1.0, 1.0 - 4e-10]), np.ones(2), np.array([5, 1])
        vb, db, ib = np.array([0.0]), np.ones(1), np.array([2])
        a, b, grad = lexgraph.steepest._two_sided_star(va, da, ia, vb, db, ib, DEFAULT_TOL)
        assert (a, b) == (1, 0) and grad == 0.5
        assert (va[a] - vb[b]) / (da[a] + db[b]) < grad

    def test_rounding_at_tolerance_zero_keeps_the_maximizer(self):
        """Terminal 0 sits on both sides at distance 0. At the maximum,
        rounding leaves terminal 1 an ulp below terminal 0 on side A, so at
        tolerance 0 the tie-break finds no id-distinct pair, and the pair
        that set the maximum is returned."""
        va = np.array([0.022855624854134282, 0.488732228579003])
        da, ia = np.array([0.0, 0.0014301911266136362]), np.arange(2)
        vb, db, ib = va[:1], np.zeros(1), ia[:1]
        grad = float((va[1] - vb[0]) / da[1])
        assert lexgraph.steepest._best_pair(va - grad * da, ia, vb + grad * db, ib, 0.0) is None
        assert lexgraph.steepest._two_sided_star(va, da, ia, vb, db, ib, 0.0) == (1, 0, grad)


def brute_pressure_at(g, v0, x):
    """The best gradient over pairs of distinct terminals of a shortest walk
    through x; -inf if there is none. A digraph's cycle s -> x -> s joins no
    two distinct terminals, so s == t is skipped."""
    dist = apsp_floyd_warshall(g)
    terms = v0.terminals()
    best = -np.inf
    for s in terms:
        for t in terms:
            d = dist[s, x] + dist[x, t]
            if s != t and np.isfinite(d):
                best = max(best, (v0.values[s] - v0.values[t]) / d)
    return best


class TestVertexSteepest:
    def test_terminal_with_single_neighbor_terminal(self):
        g = Graph(2, [(0, 1, 2.0)])
        v0 = PartialAssignment([1.0, 0.0])
        p = vertex_steepest_path(g, v0, 0)
        assert p.vertices == (0, 1) and p.gradient == pytest.approx(0.5)

    def test_free_center_unique_pair(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        p = vertex_steepest_path(g, PartialAssignment([0.0, None, 2.0]), 1)
        assert p.vertices == (2, 1, 0)
        assert p.gradient == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_equals_pressure(self, seed):
        """On every vertex, terminals included, of an undirected and a
        directed instance: where the brute-force pressure is positive, the
        search's gradient is that pressure and its path joins two terminals;
        elsewhere it raises NoTerminalPathError."""
        for make in (random_instance, random_directed_instance):
            g, v0 = make(seed, n_range=(15, 15))
            tmask = v0.terminal_mask()
            for x in range(g.n):
                pressure = brute_pressure_at(g, v0, x)
                if pressure <= 0.0:
                    with pytest.raises(NoTerminalPathError):
                        vertex_steepest_path(g, v0, x)
                    continue
                p = vertex_steepest_path(g, v0, x)
                assert p.gradient == pytest.approx(pressure, abs=1e-9)
                assert tmask[p.first] and tmask[p.last]

    def test_negative_pressure_on_a_digraph(self):
        """Terminal 0 has arcs to and from vertex 1, terminal 2 an arc from
        1 only: the one path between distinct terminals through 1 climbs,
        so nothing slopes down through 1."""
        g = Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)], directed=True)
        with pytest.raises(NoTerminalPathError, match="no sloped terminal path"):
            vertex_steepest_path(g, PartialAssignment([0.0, None, 1.0]), 1)

    def test_no_path_raises(self):
        g = Graph(3, [(0, 1, 1.0), (2, 1, 1.0)], directed=True)
        with pytest.raises(NoTerminalPathError):
            vertex_steepest_path(g, PartialAssignment([0.0, None, 1.0]), 1)

    @pytest.mark.parametrize("x", [-1, 3, 5], ids=["minus1", "n", "n_plus_2"])
    def test_vertex_out_of_range_raises(self, x):
        """A vertex outside [0, n) raises ValueError in the Dijkstra and in
        the public search. Run in a child process: a source outside the
        range used to index past the kernel's arrays and crash the
        interpreter."""
        code = (
            "import pytest\n"
            "from lexgraph import Graph, PartialAssignment, vertex_steepest_path\n"
            "from lexgraph.core import single_source_distances\n"
            "g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])\n"
            f"with pytest.raises(ValueError, match='vertex {x} out of range'):\n"
            f"    single_source_distances(g, {x})\n"
            f"with pytest.raises(ValueError, match='vertex {x} out of range'):\n"
            f"    vertex_steepest_path(g, PartialAssignment([0.0, None, 1.0]), {x})\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def prune_tt(g, v0):
    tmask = v0.terminal_mask()
    return g.with_edge_mask(~(tmask[g.edge_u] & tmask[g.edge_v]))


def spy_descents(monkeypatch, split=lexgraph.steepest.high_pressure_subgraph) -> list[int]:
    """Route ``steepest_path``'s pressure split through ``split`` and return a
    list that gains one entry per split that left an edge, i.e. per descent:
    its length after a search is the search's recursion depth."""
    descents = []

    def counted(g, v0, alpha):
        hp = split(g, v0, alpha)
        if hp.graph.m:
            descents.append(hp.graph.n)
        return hp

    monkeypatch.setattr(lexgraph.steepest, "high_pressure_subgraph", counted)
    return descents


class TestSteepestPath:
    def test_single_free_vertex(self, path3):
        g, v0 = path3
        p = steepest_path(g, v0, seed=0)
        assert p.vertices == (2, 1, 0) and p.gradient == pytest.approx(0.5)

    def test_constant_labels_zero_gradient(self):
        """Every terminal path is flat, so none is found."""
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(NoTerminalPathError):
            steepest_path(g, PartialAssignment([0.7, None, None, 0.7]), seed=3)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_oracle(self, seed):
        g, v0 = random_instance(seed, n_range=(20, 20), max_extra_edges=40)
        work = prune_tt(g, v0)
        ref = brute_steepest_path(work, v0)
        got = steepest_path(work, v0, seed=seed)
        assert got.gradient == pytest.approx(ref.gradient, abs=1e-9)

    def test_gradient_seed_independent(self):
        g, v0 = random_instance(123, n_range=(25, 25))
        work = prune_tt(g, v0)
        grads = {round(steepest_path(work, v0, seed=s).gradient, 10) for s in range(10)}
        assert len(grads) == 1

    def test_output_is_free_terminal_path(self):
        for seed in range(6):
            g, v0 = random_instance(seed)
            work = prune_tt(g, v0)
            p = steepest_path(work, v0, seed=seed)
            tmask = v0.terminal_mask()
            assert tmask[p.first] and tmask[p.last]
            for a, b in zip(p.vertices, p.vertices[1:]):
                assert work.edge_ids(a, b) >= 0
                assert not (tmask[a] and tmask[b])

    def test_rejects_terminal_terminal_edges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        with pytest.raises(ValueError):
            steepest_path(g, PartialAssignment([0.0, None, 1.0]), seed=0)

    def test_rejects_complete_assignment(self, path3):
        g, _ = path3
        with pytest.raises(ValueError):
            steepest_path(g, PartialAssignment([0.0, 0.5, 1.0]), seed=0)

    def test_expected_recursion_depth(self, monkeypatch):
        g, v0 = random_instance(999, n_range=(200, 200), max_extra_edges=400, terminal_range=(8, 8))
        work = prune_tt(g, v0)
        descents = spy_descents(monkeypatch)
        depths = []
        for seed in range(100):
            descents.clear()
            steepest_path(work, v0, seed=seed)
            depths.append(len(descents))
        assert float(np.mean(depths)) <= 4 * math.log2(max(work.m, 2))

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_every_round_shrinks(self, monkeypatch, directed):
        """The sampled vertices' pressure is at most the threshold, so each
        round leaves strictly fewer vertices than it started with."""
        rounds = []
        sample_split = lexgraph.steepest._sample_split

        def recorded(g, v0, rng):
            best, hp = sample_split(g, v0, rng)
            rounds.append((g.n, hp.graph.n))
            return best, hp

        monkeypatch.setattr(lexgraph.steepest, "_sample_split", recorded)
        searched = 0
        for seed in range(120):
            g, v0 = random_directed_instance(seed) if directed else random_instance(seed)
            if v0.is_complete:
                continue
            try:
                steepest_path(prune_tt(g, v0), v0, seed=seed)
            except NoTerminalPathError:  # possible on a digraph
                pass
            searched += 1
        assert searched >= 100
        assert rounds and all(after < before for before, after in rounds)

    def test_a_round_that_keeps_every_vertex_raises(self, monkeypatch):
        g, v0 = random_instance(7, n_range=(20, 20), max_extra_edges=40)

        def keep_everything(g, v0, alpha):
            return PressureSubgraph(g, np.arange(g.n), alpha)

        descents = spy_descents(monkeypatch, keep_everything)
        with pytest.raises(LexgraphError, match="kept every vertex"):
            steepest_path(prune_tt(g, v0), v0, seed=0)
        assert len(descents) == 1
