import math
import subprocess
import sys

import numpy as np
import pytest

from lexgraph import (
    Graph,
    NoTerminalPathError,
    PartialAssignment,
    PressureSubgraph,
    StarInstance,
    star_gradient,
    star_steepest_path,
    steepest_path,
    vertex_steepest_path,
)
import lexgraph.oracles
import lexgraph.steepest
from lexgraph.oracles import apsp_floyd_warshall, brute_steepest_path

from conftest import random_instance


def star_brute(inst: StarInstance):
    best = None
    for i in range(len(inst)):
        for j in range(len(inst)):
            if i == j:
                continue
            grad = (inst.values[i] - inst.values[j]) / (inst.dists[i] + inst.dists[j])
            if best is None or grad > best[0] + 1e-12:
                best = (grad, i, j)
    return best


class TestStar:
    def test_two_terminals(self):
        inst = StarInstance.from_pairs([(0.0, 1.0), (1.0, 1.0)])
        pair = star_steepest_path(inst, seed=0)
        assert pair == (1, 0)
        assert star_gradient(inst, pair) == pytest.approx(0.5)

    def test_constant_values(self):
        inst = StarInstance.from_pairs([(0.3, 1.0)] * 5)
        pair = star_steepest_path(inst, seed=1)
        assert star_gradient(inst, pair) == 0.0

    def test_needs_two_terminals(self):
        with pytest.raises(ValueError):
            star_steepest_path(StarInstance.from_pairs([(1.0, 1.0)]), seed=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_quadratic_scan(self, seed):
        rng = np.random.default_rng(seed)
        pairs = [(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 3.0))) for _ in range(50)]
        inst = StarInstance.from_pairs(pairs)
        pair = star_steepest_path(inst, seed=seed)
        grad_ref = star_brute(inst)[0]
        assert star_gradient(inst, pair) == pytest.approx(grad_ref, abs=1e-9)

    def test_gradient_seed_independent(self):
        rng = np.random.default_rng(77)
        inst = StarInstance.from_pairs(
            [(float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 2.0))) for _ in range(200)]
        )
        grads = {round(star_gradient(inst, star_steepest_path(inst, seed=s)), 10) for s in range(10)}
        assert len(grads) == 1


def brute_pressure_at(g, v0, x):
    dist = apsp_floyd_warshall(g)
    terms = v0.terminals()
    best = -np.inf
    for s in terms:
        for t in terms:
            d = dist[s, x] + dist[x, t]
            if np.isfinite(d) and d > 0:
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
        g, v0 = random_instance(seed, n_range=(15, 15))
        for x in range(g.n):
            p = vertex_steepest_path(g, v0, x, seed=seed)
            assert p.gradient == pytest.approx(brute_pressure_at(g, v0, x), abs=1e-9)
            assert v0.is_terminal(p.first) and v0.is_terminal(p.last)

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

    def counted(g, v0, alpha, tol):
        hp = split(g, v0, alpha, tol=tol)
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
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        p = steepest_path(g, PartialAssignment([0.7, None, None, 0.7]), seed=3)
        assert p.gradient == pytest.approx(0.0)

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
            assert v0.is_terminal(p.first) and v0.is_terminal(p.last)
            for a, b in zip(p.vertices, p.vertices[1:]):
                assert work.edge_ids(a, b) >= 0
                assert not (v0.is_terminal(a) and v0.is_terminal(b))

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

    def test_depth_cap_fallback_uses_no_oracle(self, monkeypatch):
        g, v0 = random_instance(7, n_range=(20, 20), max_extra_edges=40)
        work = prune_tt(g, v0)
        ref = brute_steepest_path(work, v0)

        def keep_everything(g, v0, alpha, tol):
            return PressureSubgraph(g, np.arange(g.n), alpha)

        def oracle_called(*args, **kwargs):
            raise AssertionError("production code called the oracle")

        # the pressure split never shrinks the graph, so the depth passes the cap
        descents = spy_descents(monkeypatch, keep_everything)
        monkeypatch.setattr(lexgraph.oracles, "brute_steepest_path", oracle_called)
        got = steepest_path(work, v0, seed=0)
        assert len(descents) > 8 * math.log2(work.m) + 16
        assert got.gradient == pytest.approx(ref.gradient, abs=1e-9)
