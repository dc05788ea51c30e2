import statistics
import sys

import numpy as np
import pytest

from lexgraph import (
    Graph,
    LexOrder,
    NoTerminalPathError,
    NotWellPosedError,
    PartialAssignment,
    TerminalPath,
    comp_fast_lex_min,
    comp_inf_min,
    comp_lex_min,
    directed_lex_min,
    fix_path,
    grad_plus_vector,
    gradient_vector,
    lex_compare,
    stability_check,
    verify_max_min,
)
from lexgraph import solvers, synth
from lexgraph.oracles import apsp_floyd_warshall, brute_lex_min

from conftest import random_directed_instance, random_instance, reference_directed_fixing


class TestFixPath:
    def test_symmetric_midpoint(self, path3):
        g, v0 = path3
        p = TerminalPath.build(g, v0, [0, 1, 2])
        assert fix_path(g, v0, p).values[1] == pytest.approx(0.5)

    def test_uneven_lengths(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 3.0)])
        v0 = PartialAssignment([4.0, None, 0.0])
        p = TerminalPath.build(g, v0, [0, 1, 2])
        assert p.gradient == pytest.approx(1.0)
        assert fix_path(g, v0, p).values[1] == pytest.approx(3.0)

    def test_linear_interpolation_in_length(self):
        lens = [0.5, 1.5, 0.25, 2.0]
        g = Graph(5, [(i, i + 1, w) for i, w in enumerate(lens)])
        v0 = PartialAssignment([2.0, None, None, None, -1.0])
        p = TerminalPath.build(g, v0, [0, 1, 2, 3, 4])
        out = fix_path(g, v0, p).values
        total = sum(lens)
        run = 0.0
        for i, w in enumerate(lens[:-1], start=1):
            run += lens[i - 1]
            assert out[i] == pytest.approx(2.0 + (-1.0 - 2.0) * run / total)

    def test_requires_terminal_endpoints(self, path3):
        g, v0 = path3
        bad = TerminalPath((1, 2), 1.0, 0.0)
        with pytest.raises(NoTerminalPathError):
            fix_path(g, PartialAssignment([0.0, None, None]), bad)


class TestCompInfMin:
    def test_single_path_midpoint(self):
        g = Graph(3, [(0, 1, 1.5), (1, 2, 0.5)])
        v0 = PartialAssignment([0.0, None, 1.0])
        res = comp_inf_min(g, v0)
        assert res.inf_norm == pytest.approx(0.5)
        assert res.assignment[1] == pytest.approx(0.75)  # 0 + 0.5 * 1.5

    def test_constant_labels(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
        res = comp_inf_min(g, PartialAssignment([0.3, None, None, 0.3]))
        assert res.inf_norm == pytest.approx(0.0)
        assert np.allclose(res.assignment, 0.3)

    @pytest.mark.parametrize("seed", range(10))
    def test_inf_duality_vs_oracle(self, seed):
        g, v0 = random_instance(seed, n_range=(14, 14))
        dist = apsp_floyd_warshall(g)
        terms = v0.terminals()
        alpha = 0.0
        for s in terms:
            for t in terms:
                if s != t and np.isfinite(dist[s, t]) and dist[s, t] > 0:
                    alpha = max(alpha, (v0.values[s] - v0.values[t]) / dist[s, t])
        res = comp_inf_min(g, v0, seed=seed)
        assert res.inf_norm == pytest.approx(alpha, abs=1e-12)

    def test_not_well_posed(self):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(NotWellPosedError):
            comp_inf_min(g, PartialAssignment([0.0, None, None]))

    @pytest.mark.parametrize("seed", range(6))
    def test_directed_inf_duality(self, seed):
        g, v0 = random_directed_instance(seed)
        dist = apsp_floyd_warshall(g)
        terms = v0.terminals()
        alpha = 0.0
        for s in terms:
            for t in terms:
                if s != t and np.isfinite(dist[s, t]) and dist[s, t] > 0:
                    alpha = max(alpha, float((v0.values[s] - v0.values[t]) / dist[s, t]))
        res = comp_inf_min(g, v0, seed=seed)
        assert res.inf_norm == pytest.approx(alpha, abs=1e-12)


class TestCompLexMin:
    def test_unweighted_path_interpolates(self):
        g = Graph(5, [(i, i + 1, 1.0) for i in range(4)])
        res = comp_lex_min(g, PartialAssignment([0.0, None, None, None, 1.0]), seed=0)
        assert np.allclose(res.assignment, [0, 0.25, 0.5, 0.75, 1.0])

    def test_t_graph_two_rounds(self):
        # path a-b-c with labels 0/1 plus pendant b-d-e with label 0.5 at e
        g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)])
        res = comp_lex_min(g, PartialAssignment([0.0, None, 1.0, None, 0.5]), seed=0)
        assert np.allclose(res.assignment, [0.0, 0.5, 1.0, 0.5, 0.5])
        grads = [round(grad, 9) for _, grad in res.fixed_order]
        assert grads == sorted(grads, reverse=True)
        assert grads[0] == pytest.approx(0.5)
        assert grads[-1] == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_meta(self, seed):
        g, v0 = random_instance(seed, n_range=(12, 12))
        assert np.abs(comp_lex_min(g, v0, seed=seed).assignment - brute_lex_min(g, v0)).max() < 1e-8

    def test_fixed_gradients_nonincreasing(self):
        g, v0 = random_instance(42, n_range=(25, 25))
        res = comp_lex_min(g, v0, seed=7)
        grads = [grad for _, grad in res.fixed_order]
        for a, b in zip(grads, grads[1:]):
            assert b <= a + 1e-7

    def test_directed_rejected(self):
        g = Graph(2, [(0, 1, 1.0)], directed=True)
        with pytest.raises(ValueError):
            comp_lex_min(g, PartialAssignment([0.0, 1.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_extreme_dynamic_range(self, seed):
        # lengths spanning ten decades and labels in the 1e5 range still solve
        rng = np.random.default_rng(seed + 12345)
        n = int(rng.integers(5, 16))
        edges = []
        order = rng.permutation(n)
        for i in range(1, n):
            j = int(rng.integers(i))
            edges.append((int(order[i]), int(order[j]), float(10 ** rng.uniform(-5, 5))))
        for _ in range(int(rng.integers(0, 20))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                edges.append((u, v, float(10 ** rng.uniform(-5, 5))))
        g = Graph(n, edges)
        vals: list[float | None] = [None] * n
        for t in rng.choice(n, size=int(rng.integers(2, min(7, n))), replace=False):
            vals[int(t)] = float(rng.uniform(-1e5, 1e5))
        v0 = PartialAssignment(vals)
        ref = brute_lex_min(g, v0)
        scale = max(1.0, float(np.abs(ref).max()))
        a = comp_lex_min(g, v0, seed=seed).assignment
        b = comp_fast_lex_min(g, v0, seed=seed).assignment
        assert max(np.abs(ref - a).max(), np.abs(ref - b).max()) / scale < 1e-6


class TestCompFastLexMin:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference(self, seed):
        g, v0 = random_instance(seed * 31 + 5)
        slow = comp_lex_min(g, v0, seed=seed).assignment
        fast = comp_fast_lex_min(g, v0, seed=seed + 1).assignment
        assert np.abs(slow - fast).max() < 1e-8

    def test_same_gradient_multiset(self):
        g, v0 = random_instance(8, n_range=(18, 18))
        slow = sorted(round(grad, 8) for _, grad in comp_lex_min(g, v0, seed=0).fixed_order)
        fast = sorted(round(grad, 8) for _, grad in comp_fast_lex_min(g, v0, seed=5).fixed_order)
        # multisets agree up to path splitting at equal gradient; compare as sets
        assert set(slow) <= set(fast) or set(fast) <= set(slow) or slow == fast

    def test_disconnected_pressure_components(self):
        # two separate steep regions joined by a flat corridor
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 10.0), (3, 4, 1.0), (4, 5, 1.0)]
        g = Graph(6, edges)
        v0 = PartialAssignment([0.0, None, 1.0, 5.0, None, 6.0])
        fast = comp_fast_lex_min(g, v0, seed=2).assignment
        slow = comp_lex_min(g, v0, seed=2).assignment
        assert np.abs(fast - slow).max() < 1e-10

    def test_dense_and_general_paths_agree(self, monkeypatch):
        """DENSE_MAX 0 sends every component through the general loop, 10**6
        every component below the top level through the dense kernel."""
        instances = [random_instance(seed * 17 + 3) for seed in range(12)]
        refs = [comp_lex_min(g, v0, seed=0).assignment for g, v0 in instances]
        calls = []
        dense = solvers._fix_dense

        def counting(*args):
            calls.append(args[0].n)
            return dense(*args)

        monkeypatch.setattr(solvers, "_fix_dense", counting)
        for cutoff in (0, 10**6):
            monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
            calls.clear()
            for seed, ((g, v0), ref) in enumerate(zip(instances, refs)):
                out = comp_fast_lex_min(g, v0, seed=seed).assignment
                assert np.abs(out - ref).max() < 1e-8
                assert verify_max_min(g, v0, out).ok
            assert (len(calls) > 0) == (cutoff > 0)

    def test_leaves_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("comp_fast_lex_min changed the recursion limit")

        inst = synth.cube_knn(500, n_labels=20, seed=3)
        instances = [random_instance(11, n_range=(30, 30)), (inst.graph, inst.assignment())]
        refs = [comp_lex_min(g, v0, seed=0).assignment for g, v0 in instances]
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        for (g, v0), ref in zip(instances, refs):
            assert np.abs(comp_fast_lex_min(g, v0, seed=1).assignment - ref).max() < 1e-8


class TestGridLexOptimality:
    """No assignment on a coarse value grid lex-precedes the solver output."""

    @pytest.mark.parametrize("seed", range(6))
    def test_nothing_on_grid_beats_solver(self, seed):
        while True:
            g, v0 = random_instance(seed + 700, n_range=(5, 10), max_extra_edges=12,
                                    terminal_range=(2, 8), value_range=(0.0, 1.0))
            free = np.flatnonzero(~v0.terminal_mask())
            if 1 <= free.size <= 4:
                break
            seed += 1000
        out = comp_lex_min(g, v0, seed=seed).assignment
        solver_sorted = np.sort(np.abs(gradient_vector(g, out)))[::-1]
        grid = np.linspace(0.0, 1.0, 17)
        mesh = np.meshgrid(*([grid] * free.size), indexing="ij")
        combos = np.stack([m.ravel() for m in mesh], axis=1)
        values = np.tile(v0.values, (combos.shape[0], 1))
        values[:, free] = combos
        grads = np.abs((values[:, g.edge_u] - values[:, g.edge_v]) / g.edge_len)
        grads = np.sort(grads, axis=1)[:, ::-1]
        idx = np.lexsort(tuple(grads[:, i] for i in range(grads.shape[1] - 1, -1, -1)))
        assert lex_compare(grads[idx[0]], solver_sorted) is not LexOrder.LESS


def grid_lex_best(g, v0, resolution=64):
    """Exhaustive grid search over free values in {0, 1/res, ..., 1}; returns
    the lexicographically smallest sorted directed-gradient vector."""
    free = np.flatnonzero(~v0.terminal_mask())
    grid = np.linspace(0.0, 1.0, resolution + 1)
    mesh = np.meshgrid(*([grid] * free.size), indexing="ij")
    combos = np.stack([m.ravel() for m in mesh], axis=1)
    values = np.tile(v0.values, (combos.shape[0], 1))
    values[:, free] = combos
    gp = np.maximum((values[:, g.edge_u] - values[:, g.edge_v]) / g.edge_len, 0.0)
    gp = np.sort(gp, axis=1)[:, ::-1]
    idx = np.lexsort(tuple(gp[:, i] for i in range(gp.shape[1] - 1, -1, -1)))
    return gp[idx[0]]


class TestDirectedLexMin:
    def test_chain_single_path(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        res = directed_lex_min(g, PartialAssignment([1.0, None, 0.0]), seed=0)
        assert res.result.assignment[1] == pytest.approx(0.5)
        assert not res.ambiguous and not res.violations

    def test_chain_ambiguous_median(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        res = directed_lex_min(g, PartialAssignment([0.0, None, 1.0]), seed=0)
        amb = res.ambiguous
        assert len(amb) == 1 and amb[0].vertex == 1
        assert amb[0].lower == pytest.approx(0.0) and amb[0].upper == pytest.approx(1.0)
        assert res.result.assignment[1] == pytest.approx(0.5)  # median of {0, 1}
        assert not res.violations

    def test_toy_hosts_grid_brute_force(self):
        # 6 hosts, binary labels on 3, compare against a 1/64 grid search
        edges = [
            (0, 3, 1.0), (3, 1, 0.5), (1, 4, 1.0), (4, 2, 2.0),
            (2, 5, 1.0), (5, 0, 1.0), (3, 4, 1.0), (0, 4, 2.5), (5, 3, 2.0),
        ]
        g = Graph(6, edges, directed=True)
        v0 = PartialAssignment([1.0, 0.0, 1.0, None, None, None])
        res = directed_lex_min(g, v0, seed=0)
        got = np.sort(grad_plus_vector(g, res.result.assignment))[::-1]
        ref = grid_lex_best(g, v0)
        assert np.all(got <= ref + 2.0 / 64 + 1e-9)
        assert not res.violations

    def test_grad_plus_agrees_across_seeds(self):
        for seed in range(6):
            g, v0 = random_directed_instance(seed)
            base = grad_plus_vector(g, directed_lex_min(g, v0, seed=0).result.assignment)
            for s in (1, 2, 3):
                other = grad_plus_vector(g, directed_lex_min(g, v0, seed=s).result.assignment)
                assert np.abs(base - other).max() < 1e-8

    def test_unfixed_edges_have_zero_directed_gradient(self):
        for seed in range(10):
            g, v0 = random_directed_instance(seed + 50)
            res = directed_lex_min(g, v0, seed=seed)
            assert not res.violations

    def test_undirected_rejected(self, path3):
        g, v0 = path3
        with pytest.raises(ValueError):
            directed_lex_min(g, v0)

    @pytest.mark.parametrize(
        "seeds, n_range",
        [(range(6000, 6050), (6, 20)), (range(60), (20, 60))],
        ids=["criterion-9", "n20-60"],
    )
    def test_matches_whole_graph_reference(self, seeds, n_range):
        """The pressure descent fixes the same vertices to the same values, in
        as many paths, as the old loop of one whole-graph steepest path per
        round, and leaves the same intervals."""
        for seed in seeds:
            g, v0 = random_directed_instance(seed, n_range=n_range)
            res = directed_lex_min(g, v0, seed=seed)
            values, fixed = reference_directed_fixing(g, v0, seed=seed)
            mask = ~np.isnan(values)
            ambiguous = []
            if not mask.all():
                median = float(statistics.median(v0.values[v0.terminals()].tolist()))
                values, ambiguous = solvers._resolve_intervals(g, values, median)
            assert np.array_equal(res.fixed_before_resolution, mask), seed
            assert res.result.iterations == len(fixed), seed
            np.testing.assert_allclose(
                grad_plus_vector(g, res.result.assignment), grad_plus_vector(g, values), rtol=0, atol=1e-9
            )
            assert [a.vertex for a in res.ambiguous] == [a.vertex for a in ambiguous], seed
            for got, ref in zip(res.ambiguous, ambiguous):
                np.testing.assert_allclose([got.lower, got.upper], [ref.lower, ref.upper], rtol=0, atol=1e-9)

    def test_dense_and_general_paths_agree(self, monkeypatch):
        """DENSE_MAX 0 sends every directed component through the general
        loop, 10**6 every component below the top level, at any alpha, through
        the dense kernel."""
        instances = [random_directed_instance(seed + 300, n_range=(20, 60)) for seed in range(12)]
        refs = [grad_plus_vector(g, directed_lex_min(g, v0).result.assignment) for g, v0 in instances]
        calls = []
        dense = solvers._fix_dense

        def counting(*args):
            calls.append(args[2])
            return dense(*args)

        monkeypatch.setattr(solvers, "_fix_dense", counting)
        for cutoff in (0, 10**6):
            monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
            calls.clear()
            for seed, ((g, v0), ref) in enumerate(zip(instances, refs)):
                res = directed_lex_min(g, v0, seed=seed)
                assert np.abs(grad_plus_vector(g, res.result.assignment) - ref).max() < 1e-9
                assert not res.violations
            assert (len(calls) > 0) == (cutoff > 0)

    @pytest.mark.parametrize("cutoff", [0, 48])
    def test_paths_within_tol_of_flat_stay_free(self, monkeypatch, cutoff):
        """Six chains A -> x -> B of length 10 whose drops of 1.5e-9 .. 9e-9
        give positive gradients within tol of 0, and one steep chain: only the
        steep one is fixed, by the general loop or the dense kernel."""
        monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
        edges, vals = [(18, 19, 1.0), (19, 20, 1.0)], []
        for i in range(6):
            edges += [(3 * i, 3 * i + 1, 5.0), (3 * i + 1, 3 * i + 2, 5.0), (3 * i + 2, 3 * i + 1, 5.0)]
            vals += [0.5 + 1.5e-9 * (i + 1), None, 0.5]
        g, v0 = Graph(21, edges, directed=True), PartialAssignment(vals + [1.0, None, 0.0])
        for seed in range(10):
            res = directed_lex_min(g, v0, seed=seed)
            assert [path.vertices for path, _ in res.result.fixed_order] == [(18, 19, 20)]
            assert [a.vertex for a in res.ambiguous] == [1, 4, 7, 10, 13, 16]

    def test_dense_walk_back_follows_in_edges(self):
        """The steepest pair is 0 -> 4 along 0 -> 1 -> 2 -> 4. The step into
        4 is the arc 2 -> 4, which has no reverse arc, while 4's only out-arc
        leads to 3: read along out-arcs, the walk back from 4 goes astray."""
        g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 4, 1.0), (4, 3, 0.5), (3, 2, 0.5)], directed=True)
        state = solvers._FastState(g, np.array([2.0, np.nan, np.nan, np.nan, 0.0]), np.random.default_rng(0), 1e-9)
        solvers._fix_dense(g, np.arange(5), 0.0, state)
        assert [path.vertices for path, _ in state.fixed] == [(0, 1, 2, 4)]
        np.testing.assert_allclose(state.values[:3], [2.0, 4.0 / 3.0, 2.0 / 3.0])
        assert np.isnan(state.values[3])  # only flat or uphill walks pass through 3


class TestVerifyMaxMin:
    def test_lex_output_passes(self):
        for seed in range(8):
            g, v0 = random_instance(seed)
            res = comp_lex_min(g, v0, seed=seed)
            assert verify_max_min(g, v0, res.assignment, tol=1e-7).ok

    def test_perturbation_detected_at_vertex(self):
        g, v0 = random_instance(17)
        res = comp_lex_min(g, v0, seed=0)
        free = np.flatnonzero(~v0.terminal_mask())
        perturbed = res.assignment.copy()
        perturbed[free[0]] += 0.1
        report = verify_max_min(g, v0, perturbed, tol=1e-7)
        assert not report.ok
        assert any(x == free[0] for x, _, _ in report.violations)

    def test_unweighted_neighbor_averaging(self):
        g, v0 = random_instance(4, n_range=(12, 12))
        g = Graph(g.n, [(int(u), int(v), 1.0) for u, v in zip(g.edge_u, g.edge_v)])
        res = comp_lex_min(g, v0, seed=1)
        vals = res.assignment
        adj = g.adjacency_lists()
        for x in np.flatnonzero(~v0.terminal_mask()):
            neigh = [vals[y] for y, _ in adj[x]]
            assert vals[x] == pytest.approx(0.5 * (max(neigh) + min(neigh)), abs=1e-7)


class TestStability:
    def test_identity(self):
        g, v0 = random_instance(3)
        assert stability_check(g, v0, v0) == pytest.approx(0.0)

    def test_affine_equivariance(self):
        g, v0 = random_instance(6)
        c, d = 2.5, -0.7
        scaled = PartialAssignment(np.where(v0.terminal_mask(), c * v0.values + d, np.nan))
        a = comp_lex_min(g, v0, seed=0).assignment
        b = comp_lex_min(g, scaled, seed=0).assignment
        assert np.abs(b - (c * a + d)).max() < 1e-9

    def test_translation_moves_exactly_epsilon(self):
        g, v0 = random_instance(9)
        eps = 0.125
        shifted = PartialAssignment(np.where(v0.terminal_mask(), v0.values + eps, np.nan))
        assert stability_check(g, v0, shifted) == pytest.approx(eps, abs=1e-9)

    def test_bounded_by_label_perturbation(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            g, v0 = random_instance(seed + 100)
            eps = 0.2
            noise = rng.uniform(-eps, eps, g.n)
            v1 = PartialAssignment(np.where(v0.terminal_mask(), v0.values + noise, np.nan))
            assert stability_check(g, v0, v1) <= eps + 1e-9

    def test_monotone_in_labels(self):
        rng = np.random.default_rng(8)
        for seed in range(6):
            g, v0 = random_instance(seed + 200)
            bump = rng.uniform(0.0, 0.5, g.n)
            v1 = PartialAssignment(np.where(v0.terminal_mask(), v0.values + bump, np.nan))
            a = comp_lex_min(g, v0, seed=0).assignment
            b = comp_lex_min(g, v1, seed=0).assignment
            assert np.all(b >= a - 1e-9)

    def test_terminal_set_mismatch(self):
        g, v0 = random_instance(2)
        other = PartialAssignment([0.0] * g.n)
        with pytest.raises(ValueError):
            stability_check(g, v0, other)
