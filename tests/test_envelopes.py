import numpy as np
import pytest

from lexgraph import (
    Graph,
    NotWellPosedError,
    PartialAssignment,
    comp_inf_min,
    comp_vhigh,
    comp_vlow,
    high_pressure_subgraph,
    mod_dijkstra,
    pressure_exceeds,
)
from lexgraph import core
from lexgraph.oracles import apsp_floyd_warshall

from conftest import random_directed_instance, random_instance


def brute_vlow(g, v0, alpha):
    """min_t v0(t) + alpha * dist(x, t) from the all-pairs oracle."""
    dist = apsp_floyd_warshall(g)
    terms = v0.terminals()
    return np.min(v0.values[terms][None, :] + alpha * dist[:, terms], axis=1)


def brute_vhigh(g, v0, alpha):
    dist = apsp_floyd_warshall(g)
    terms = v0.terminals()
    return np.max(v0.values[terms][None, :] - alpha * dist[terms, :].T, axis=1)


def brute_pressure_mask(g, v0, alpha):
    """pressure(x) > alpha via all terminal pairs through every vertex."""
    dist = apsp_floyd_warshall(g)
    terms = v0.terminals()
    out = np.zeros(g.n, dtype=bool)
    for x in range(g.n):
        for s in terms:
            for t in terms:
                d = dist[s, x] + dist[x, t]
                if np.isfinite(d) and d > 0:
                    if (v0.values[s] - v0.values[t]) / d > alpha + 1e-12:
                        out[x] = True
    return out


def _check_parents(g, values, parent, start, scale, reverse):
    """parent[x] = -1 at sources (value = start) and unreached vertices (+inf);
    elsewhere value(x) = value(parent) + scale * len(parent -> x)."""
    for x in range(g.n):
        p = int(parent[x])
        if p < 0:
            assert values[x] == pytest.approx(start[x], abs=1e-12) if x in start else np.isinf(values[x])
            continue
        (length,) = g.path_lengths((x, p) if reverse else (p, x))
        assert values[x] == pytest.approx(values[p] + scale * length, abs=1e-12)


class TestModDijkstra:
    def test_alpha_zero_is_min_terminal(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        v0 = PartialAssignment([0.4, None, None, -0.2])
        env = mod_dijkstra(g, v0, 0.0)
        assert np.allclose(env.values, [-0.2, -0.2, -0.2, -0.2])

    def test_path_direct_formula(self, path3):
        g, v0 = path3
        env = comp_vlow(g, v0, 1.0)
        assert env.values[1] == pytest.approx(min(0 + 1, 1 + 1))

    def test_matches_apsp_oracle(self):
        g, v0 = random_instance(11, n_range=(10, 10))
        env = comp_vlow(g, v0, 0.7)
        assert np.allclose(env.values, brute_vlow(g, v0, 0.7))

    def test_kernel_matches_floyd_warshall(self):
        """``core._dijkstra`` equals min over sources of start + scale * dist
        from the all-pairs oracle, both orientations; exactly at scale 0. The
        copies without the edges into terminals leave each vertex only some
        sources, or none."""
        instances = [random_instance(seed, n_range=(12, 25)) for seed in range(5)]
        instances += [random_directed_instance(seed, n_range=(12, 25)) for seed in range(5)]
        instances += [(g.with_edge_mask(~v0.terminal_mask()[g.edge_v]), v0) for g, v0 in instances]
        for g, v0 in instances:
            dist = apsp_floyd_warshall(g)
            terms = v0.terminals()
            calls = [(terms, v0.values[terms], alpha) for alpha in (0.0, 0.3, 1.7)]
            calls.append((terms, -v0.values[terms], 0.0))
            # one start far below the rest, which a shift by the minimum rounds
            calls.append((terms, v0.values[terms] - 3.0 * (terms == terms[0]), 0.0))
            calls.append(([int(np.flatnonzero(~v0.terminal_mask())[0])], [0.0], 1.0))
            for sources, start, scale in calls:
                for reverse in (False, True):
                    d = dist[:, sources].T if reverse and g.directed else dist[sources]
                    with np.errstate(invalid="ignore"):
                        paths = np.where(np.isfinite(d), np.asarray(start)[:, None] + scale * d, np.inf)
                    values, parent = core._dijkstra(g, sources, start, scale, reverse)
                    if scale == 0.0:
                        assert np.array_equal(values, paths.min(axis=0))
                    else:
                        np.testing.assert_allclose(values, paths.min(axis=0), rtol=0, atol=1e-12)
                    _check_parents(g, values, parent, dict(zip(sources, start)), scale, reverse)

    def test_parent_recurrence(self):
        g, v0 = random_instance(4, n_range=(15, 15))
        alpha = 0.9
        env = comp_vlow(g, v0, alpha)
        for x in np.flatnonzero(~v0.terminal_mask()):
            p = int(env.parent[x])
            assert p >= 0
            (length,) = g.path_lengths((x, p))
            assert env.values[x] == pytest.approx(env.values[p] + alpha * length)

    def test_vhigh_parent_recurrence(self):
        g, v0 = random_instance(6, n_range=(13, 13))
        alpha = 0.6
        env = comp_vhigh(g, v0, alpha)
        for x in np.flatnonzero(~v0.terminal_mask()):
            p = int(env.parent[x])
            assert p >= 0
            (length,) = g.path_lengths((x, p))
            assert env.values[x] == pytest.approx(env.values[p] - alpha * length)

    def test_negative_alpha_rejected(self, path3):
        g, v0 = path3
        with pytest.raises(ValueError):
            mod_dijkstra(g, v0, -0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, path3, alpha):
        """nan and inf fail as a negative alpha does: not as an ill-posed
        instance, and not as an empty pressure subgraph."""
        g, v0 = path3
        for call in (mod_dijkstra, comp_vhigh, high_pressure_subgraph):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                call(g, v0, alpha)

    def test_unreachable_vertex_raises(self):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(NotWellPosedError):
            mod_dijkstra(g, PartialAssignment([0.0, None, None]), 1.0)


class TestEnvelopes:
    def test_vhigh_alpha_zero_is_max_terminal(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        v0 = PartialAssignment([0.4, None, None, -0.2])
        env = comp_vhigh(g, v0, 0.0)
        assert np.allclose(env.values, [0.4, 0.4, 0.4, 0.4])

    def test_constant_star(self):
        g = Graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.5)])
        v0 = PartialAssignment([None, 0.7, 0.7, 0.7])
        lo = comp_vlow(g, v0, 0.0)
        hi = comp_vhigh(g, v0, 0.0)
        assert np.allclose(lo.values, 0.7) and np.allclose(hi.values, 0.7)

    def test_vhigh_matches_brute(self):
        g, v0 = random_instance(21, n_range=(12, 12))
        env = comp_vhigh(g, v0, 0.45)
        assert np.allclose(env.values, brute_vhigh(g, v0, 0.45))

    def test_monotone_in_alpha(self):
        g, v0 = random_instance(9, n_range=(14, 14))
        alphas = [0.0, 0.2, 0.5, 1.0, 2.0]
        lows = [comp_vlow(g, v0, a).values for a in alphas]
        highs = [comp_vhigh(g, v0, a).values for a in alphas]
        for prev, nxt in zip(lows, lows[1:]):
            assert np.all(nxt >= prev - 1e-12)
        for prev, nxt in zip(highs, highs[1:]):
            assert np.all(nxt <= prev + 1e-12)

    def test_sandwich_around_inf_minimizer(self):
        for seed in range(8):
            g, v0 = random_instance(seed)
            res = comp_inf_min(g, v0, seed=seed)
            alpha = res.inf_norm
            lo = comp_vlow(g, v0, alpha).values
            hi = comp_vhigh(g, v0, alpha).values
            assert np.all(res.assignment <= lo + 1e-9)
            assert np.all(res.assignment >= hi - 1e-9)


class TestPressure:
    def test_all_false_above_global_gradient(self, path3):
        g, v0 = path3
        assert not pressure_exceeds(g, v0, 0.6).any()

    def test_true_below_min_positive_gradient(self, path3):
        g, v0 = path3
        mask = pressure_exceeds(g, v0, 0.25)
        assert mask.all()  # every vertex lies on the gradient-0.5 path

    def test_matches_brute_force(self):
        g, v0 = random_instance(33, n_range=(9, 9))
        for alpha in (0.0, 0.15, 0.4, 0.9):
            assert np.array_equal(pressure_exceeds(g, v0, alpha), brute_pressure_mask(g, v0, alpha))


class TestHighPressureSubgraph:
    def test_empty_above_max(self, path3):
        g, v0 = path3
        sub = high_pressure_subgraph(g, v0, 0.55)
        assert sub.graph.n == 0 and sub.graph.m == 0

    def test_whole_path_retained(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        v0 = PartialAssignment([0.0, None, None, 3.0])
        sub = high_pressure_subgraph(g, v0, 0.9)
        assert list(sub.vertices) == [0, 1, 2, 3]
        assert sub.graph.m == 3

    def test_vertex_set_matches_brute(self):
        g, v0 = random_instance(12, n_range=(12, 12))
        for alpha in (0.1, 0.35, 0.8):
            sub = high_pressure_subgraph(g, v0, alpha)
            assert np.array_equal(sub.vertices, np.flatnonzero(brute_pressure_mask(g, v0, alpha)))

    def test_nesting_in_alpha(self):
        g, v0 = random_instance(5, n_range=(16, 16))
        small = set(high_pressure_subgraph(g, v0, 0.5).vertices.tolist())
        big = set(high_pressure_subgraph(g, v0, 0.2).vertices.tolist())
        assert small <= big
