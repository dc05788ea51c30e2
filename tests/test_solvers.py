import statistics
import sys
import warnings

import numpy as np
import pytest

from lexgraph import (
    Graph,
    GraphFormatError,
    LexgraphError,
    NoTerminalPathError,
    NotWellPosedError,
    PartialAssignment,
    TerminalPath,
    comp_fast_lex_min,
    comp_inf_min,
    comp_lex_min,
    directed_lex_min,
    gradient_vector,
    outlier_approx,
    outlier_exact,
    verify_max_min,
)
from lexgraph import core, envelopes, solvers, steepest, synth
from lexgraph.oracles import apsp_floyd_warshall, brute_lex_min

from conftest import (
    LexOrder,
    lex_compare,
    random_directed_instance,
    random_instance,
    reference_directed_fixing,
    reference_resolve_intervals,
    terminal_path,
)


class TestFixPath:
    def test_symmetric_midpoint(self, path3):
        g, v0 = path3
        p = terminal_path(g, v0, [0, 1, 2])
        values = v0.values.copy()
        solvers._fix_path_inplace(values, p, g.path_lengths(p.vertices))
        assert values[1] == pytest.approx(0.5)

    def test_uneven_lengths(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 3.0)])
        v0 = PartialAssignment([4.0, None, 0.0])
        p = terminal_path(g, v0, [0, 1, 2])
        assert p.gradient == pytest.approx(1.0)
        values = v0.values.copy()
        assert solvers._fix_path_inplace(values, p, g.path_lengths(p.vertices)) == pytest.approx(1.0)
        assert values[1] == pytest.approx(3.0)

    def test_linear_interpolation_in_length(self):
        lens = [0.5, 1.5, 0.25, 2.0]
        g = Graph(5, [(i, i + 1, w) for i, w in enumerate(lens)])
        v0 = PartialAssignment([2.0, None, None, None, -1.0])
        p = terminal_path(g, v0, [0, 1, 2, 3, 4])
        out = v0.values.copy()
        solvers._fix_path_inplace(out, p, g.path_lengths(p.vertices))
        total = sum(lens)
        run = 0.0
        for i, w in enumerate(lens[:-1], start=1):
            run += lens[i - 1]
            assert out[i] == pytest.approx(2.0 + (-1.0 - 2.0) * run / total)
        assert (out[0], out[4]) == (2.0, -1.0)

    def test_existing_value_stays(self):
        """A vertex already at its interpolated value keeps it, to the byte."""
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        v0 = PartialAssignment([3.0, None, 1.0 + 1e-9, 0.0])
        values = v0.values.copy()
        solvers._fix_path_inplace(values, TerminalPath((0, 1, 2, 3), 3.0, 1.0), [1.0, 1.0, 1.0])
        assert values[1] == pytest.approx(2.0)
        assert values[2] == 1.0 + 1e-9

    def test_requires_terminal_endpoints(self, path3):
        g, v0 = path3
        bad = TerminalPath((1, 2), 1.0, 0.0)
        values = PartialAssignment([0.0, None, None]).values.copy()
        with pytest.raises(NoTerminalPathError):
            solvers._fix_path_inplace(values, bad, g.path_lengths(bad.vertices))

    def test_step_off_the_graph(self, path3):
        g, v0 = path3
        with pytest.raises(NoTerminalPathError, match="not an edge"):
            solvers._fix_path_inplace(v0.values.copy(), TerminalPath((0, 2), 2.0, -0.5), g.path_lengths((0, 2)))

    def test_one_vertex_path_rejected(self, path3):
        """A one-vertex path has no edge to interpolate along: it raises,
        without a 0/0 RuntimeWarning."""
        g, v0 = path3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoTerminalPathError):
                solvers._fix_path_inplace(v0.values.copy(), TerminalPath((0,), 0.0, 0.0), g.path_lengths((0,)))

    def test_inconsistent_revisit(self, path3):
        # 0 -> 1 -> 2 -> 1 -> 2 reaches 1 at 1/4 and again at 3/4 of its length
        g, v0 = path3
        walk = (0, 1, 2, 1, 2)
        with pytest.raises(LexgraphError, match="revisits vertex 1"):
            solvers._fix_path_inplace(v0.values.copy(), TerminalPath(walk, 4.0, -0.25), g.path_lengths(walk))


def _rounds_on_small_frames(monkeypatch, solve) -> list[bool]:
    """Run solve() with spies on the descent: one entry per general-loop
    round (the sample-and-split step after the shrink), True if its frame
    has at most DENSE_MAX vertices."""
    frames, rounds = [], []
    split_round, sampled = solvers._split_round, solvers._sample_split

    def spy_round(frame, *rest):
        frames.append(frame)
        return split_round(frame, *rest)

    def spy_sampled(*args):
        f = frames[-1]
        rounds.append(f.g.n <= solvers.DENSE_MAX)
        return sampled(*args)

    monkeypatch.setattr(solvers, "_split_round", spy_round)
    monkeypatch.setattr(solvers, "_sample_split", spy_sampled)
    solve()
    return rounds


FLAT_CASES = {
    # (graph, labels, assignment, sloped paths); a free vertex off the one
    # sloped path of the T-graph lies on no path of positive gradient
    "one_label_path": (Graph(3, [(0, 1, 1.0), (1, 2, 2.0)]), [None, 0.25, None], [0.25] * 3, 0),
    "two_components": (
        Graph(5, [(0, 1, 1.0), (1, 2, 3.0), (3, 4, 0.5)]),
        [None, 0.75, None, -2.0, None],
        [0.75, 0.75, 0.75, -2.0, -2.0],
        0,
    ),
    "t_graph": (
        Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)]),
        [0.0, None, 1.0, None, 0.5],
        [0.0, 0.5, 1.0, 0.5, 0.5],
        1,
    ),
}


@pytest.mark.parametrize("cutoff", [0, solvers.DENSE_MAX])
@pytest.mark.parametrize("case", FLAT_CASES)
def test_only_sloped_paths_are_fixed(monkeypatch, case, cutoff):
    """A free vertex on no path of positive gradient takes the value of the
    fixed vertices it touches (the lex solvers' interval fill, the inf
    solver's envelopes); ``fixed_order`` holds the sloped paths only, and
    ``iterations`` counts them."""
    monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
    g, labels, want, sloped = FLAT_CASES[case]
    v0 = PartialAssignment(labels)
    for solve in (comp_inf_min, comp_lex_min, comp_fast_lex_min):
        res = solve(g, v0, seed=0)
        assert np.array_equal(res.assignment, want), solve.__name__
        assert all(grad > 0.0 for _, grad in res.fixed_order), solve.__name__
        assert res.iterations == len(res.fixed_order) == sloped, solve.__name__


def _chains_within_tol_of_flat(directed: bool):
    """Six chains A - x - B of length 10 whose drops of 1.5e-9 .. 9e-9 give
    gradients 1.5e-10 .. 9e-10, within tol of 0, and one steep chain 18 - 19
    - 20 (on a directed graph the chain's second step is a two-way arc)."""
    edges, vals = [(18, 19, 1.0), (19, 20, 1.0)], []
    for i in range(6):
        edges += [(3 * i, 3 * i + 1, 5.0), (3 * i + 1, 3 * i + 2, 5.0)]
        edges += [(3 * i + 2, 3 * i + 1, 5.0)] if directed else []
        vals += [0.5 + 1.5e-9 * (i + 1), None, 0.5]
    return Graph(21, edges, directed=directed), PartialAssignment(vals + [1.0, None, 0.0])


@pytest.mark.parametrize("cutoff", [0, 48])
def test_undirected_paths_within_tol_of_flat_are_fixed(monkeypatch, cutoff):
    """On an undirected graph every path of positive gradient slopes down,
    however close to flat: all seven chains are fixed, by the general loop
    or the dense kernel, the reference solver steepest first, and the output
    is the lex-minimizer. Left to the interval fill, x would take the
    smaller label of its chain."""
    monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
    g, v0 = _chains_within_tol_of_flat(directed=False)
    ref = brute_lex_min(g, v0)
    chains = {(18, 19, 20), *((3 * i, 3 * i + 1, 3 * i + 2) for i in range(6))}
    for seed in range(10):
        for solve in (comp_lex_min, comp_fast_lex_min):
            res = solve(g, v0, seed=seed)
            assert {min(p.vertices, p.vertices[::-1]) for p, _ in res.fixed_order} == chains
            assert verify_max_min(g, v0, res.assignment).ok
            assert np.abs(res.assignment - ref).max() < 1e-15
        grads = [grad for _, grad in comp_lex_min(g, v0, seed=seed).fixed_order]
        assert grads == sorted(grads, reverse=True)


@pytest.mark.parametrize("cutoff", [0, 48])
@pytest.mark.parametrize(
    "lengths, top", [((1.0, 999.0), 0.5 + 9.99e-7), ((1e-6, 1e3), 0.5 + 1e-6), ((1e-3, 1.0), 0.5 + 5e-10)]
)
def test_uneven_steps_within_tol_of_flat_are_interpolated(monkeypatch, cutoff, lengths, top):
    """A path 0 - 1 - 2 whose gradient is within tol of 0 but whose short
    step would carry the whole drop if vertex 1 took an end label: vertex 1
    is interpolated, so the output passes ``verify_max_min`` and equals the
    lex-minimizer."""
    monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
    g = Graph(3, [(0, 1, lengths[0]), (1, 2, lengths[1])])
    v0 = PartialAssignment([top, None, 0.5])
    ref = brute_lex_min(g, v0)
    for solve in (comp_lex_min, comp_fast_lex_min):
        res = solve(g, v0, seed=0)
        assert res.iterations == 1
        assert verify_max_min(g, v0, res.assignment).ok
        assert np.abs(res.assignment - ref).max() < 1e-15
        assert res.inf_norm < 1e-9


@pytest.mark.parametrize("cutoff", [0, 48])
def test_nearly_flat_path_beside_a_flat_region(monkeypatch, cutoff):
    """A flat path of 61 vertices between two labels 0.5, beside a chain 61 -
    62 - 63 whose drop of 5e-10 is too small for the pressure test at tol.
    A sample on the flat path finds nothing that slopes down, so the root
    (too large for the dense kernel) looks once more at the envelopes at 0,
    which carry the labels exactly, and vertex 62 is interpolated. Left to
    the interval fill, it would take 0.5, and its step of length 1e-3 would
    carry a gradient of 5e-7."""
    monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
    edges = [(i, i + 1, 1.0) for i in range(60)] + [(61, 62, 1e-3), (62, 63, 1.0)]
    g = Graph(64, edges)
    v0 = PartialAssignment([0.5] + [None] * 59 + [0.5, 0.5 + 5e-10, None, 0.5])
    want = np.full(64, 0.5)
    want[61], want[62] = v0.values[61], v0.values[61] - 5e-10 / 1.001 * 1e-3
    for seed in range(10):
        for solve in (comp_inf_min, comp_lex_min, comp_fast_lex_min):
            res = solve(g, v0, seed=seed)
            assert np.abs(res.assignment - want).max() < 1e-15, solve.__name__
            assert res.iterations == 1 and res.inf_norm < 1e-9, solve.__name__
            assert verify_max_min(g, v0, res.assignment).ok


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_every_split_holds_a_sloped_path(monkeypatch, directed):
    """The split threshold never falls below the slope tolerance, so every
    split component holds a path that slopes down: each sampling call but
    the last fixes a path or splits off components that each fix one. On
    the chains within tol of flat, the directed descent never splits off
    the six flat-within-tol chains, which it leaves to intervals."""
    monkeypatch.setattr(solvers, "DENSE_MAX", 0)
    g, v0 = _chains_within_tol_of_flat(directed)
    calls = []
    sample_split = solvers._sample_split

    def counting(*args):
        calls.append(args[0].n)
        return sample_split(*args)

    monkeypatch.setattr(solvers, "_sample_split", counting)
    for seed in range(10):
        calls.clear()
        res = directed_lex_min(g, v0, seed=seed).result if directed else comp_fast_lex_min(g, v0, seed=seed)
        assert res.iterations == (1 if directed else 7)
        assert len(calls) <= 2 * res.iterations + 1, calls


@pytest.mark.parametrize("case", ["cube_knn300", "digraph200"])
def test_descent_rounds_prune_no_pruned_graph(monkeypatch, case):
    """A split component is cut from a graph without edges between fixed
    vertices, so only the root and a frame whose last round fixed vertices
    or split prune their graph, once a round: no round's ``with_edge_mask``
    keeps every edge, which would only copy the graph."""
    if case == "cube_knn300":
        inst, solve = synth.cube_knn(300, n_labels=20, seed=0), comp_fast_lex_min
    else:
        inst, solve = synth.random_digraph(200, 20, seed=0), directed_lex_min
    keeps_all = []
    with_edge_mask = Graph.with_edge_mask

    def spy(self, mask):
        if sys._getframe(1).f_code is solvers._split_round.__code__:
            keeps_all.append(bool(mask.all()))
        return with_edge_mask(self, mask)

    monkeypatch.setattr(Graph, "with_edge_mask", spy)
    solve(inst.graph, inst.assignment(), seed=0)
    assert keeps_all and not any(keeps_all), keeps_all


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("alpha", [0.0, 0.05])
def test_dense_batch_matches_each_component_alone(directed, alpha):
    """Seven components of 4 to 20 vertices, padded to 32 in one batch of the
    dense kernel, get the values and the fixed paths they get one at a time,
    each in a batch of one at its own size, with the paths listed component
    by component."""
    make = random_directed_instance if directed else random_instance
    parts = [make(seed, n_range=(4, 20)) for seed in range(7)]
    sizes = [g.n for g, _ in parts]
    first = np.cumsum(sizes) - sizes
    edges = np.concatenate([np.column_stack([g.edge_u + a, g.edge_v + a, g.edge_len])
                            for (g, _), a in zip(parts, first)])
    root = Graph(sum(sizes), edges, directed=directed)
    labels = np.repeat(np.arange(len(parts)), sizes)
    local, ids = np.arange(root.n) - first[labels], np.arange(root.n)
    values = np.concatenate([v0.values for _, v0 in parts])

    batch = solvers._FastState(root, np.append(values, np.nan), np.random.default_rng(0))
    solvers._fix_dense(*solvers._dense_batch(root, labels, local, ids, range(len(parts)), 32), alpha, batch)
    alone = solvers._FastState(root, np.append(values, np.nan), np.random.default_rng(0))
    for c, k in enumerate(sizes):
        solvers._fix_dense(*solvers._dense_batch(root, labels, local, ids, [c], k), alpha, alone)
    assert batch.values.tobytes() == alone.values.tobytes()
    assert batch.fixed == alone.fixed
    assert len({labels[path.first] for path, _ in batch.fixed}) >= 5


def test_split_fixes_small_children_by_padded_size():
    """A split fixes its small children one batch per padded size, the
    smallest first, and in component order within a size: the two 3-vertex
    children (padded to 4) come before the 10-vertex child (padded to 16),
    whose ids are smaller."""
    edges = [(i, i + 1, 1.0) for i in range(9)] + [(10, 11, 1.0), (11, 12, 1.0), (13, 14, 1.0), (14, 15, 1.0)]
    g = Graph(16, edges)
    values = np.full(17, np.nan)  # and the NaN slot that padding reads
    values[[0, 9, 10, 12, 13, 15]] = [9.0, 0.0, 2.0, 0.0, 4.0, 0.0]
    state, stack = solvers._FastState(g, values, np.random.default_rng(0)), []
    solvers._split(g, np.arange(16), 0.0, 1, stack, state)
    assert not stack
    assert [path.vertices for path, _ in state.fixed] == [(10, 11, 12), (13, 14, 15), tuple(range(10))]


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_steepest_path_through_a_terminal(monkeypatch, directed):
    """The path 0 - 1 - 4 - 2 - 3 (terminals 0, 4, 3) with the side branch 0
    - 5 - 6 - 2, unit lengths and collinear labels: every terminal pair
    ties at gradient 1. The steepest pair (0, 3) has two shortest paths,
    one through terminal 4, and the walk back from 3 takes it at the tie
    in 2. The dense kernel, the general loop and brute_lex_min agree, with
    no inconsistent revisit, and arcs point downhill on a directed graph."""
    g = Graph(7, [(0, 1, 1.0), (1, 4, 1.0), (4, 2, 1.0), (2, 3, 1.0), (0, 5, 1.0), (5, 6, 1.0), (6, 2, 1.0)],
              directed=directed)
    v0 = PartialAssignment([4.0, None, None, 0.0, 2.0, None, None])
    ref = brute_lex_min(g, v0)
    np.testing.assert_array_equal(ref, [4.0, 3.0, 1.0, 0.0, 2.0, 3.0, 2.0])
    solve = directed_lex_min if directed else comp_fast_lex_min
    for cutoff in (solvers.DENSE_MAX, 0):
        monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
        res = solve(g, v0, seed=0)
        res = res.result if directed else res
        np.testing.assert_array_equal(res.assignment, ref)
        if cutoff:
            assert res.fixed_order[0][0].vertices == (0, 1, 4, 2, 3)


def test_batches_split_to_the_byte_budget(monkeypatch):
    """Below the bytes of one k x k matrix, every dense batch holds one
    component; the output and ``fixed_order`` stay the same."""
    inst = synth.cube_knn(300, n_labels=20, seed=0)
    want = comp_fast_lex_min(inst.graph, inst.assignment(), seed=0)
    batches, dense = [], solvers._fix_dense
    monkeypatch.setattr(solvers, "_fix_dense", lambda *args: (batches.append(args[0].shape[0]), dense(*args))[1])
    monkeypatch.setattr(solvers, "PAIR_DISTANCE_BYTES", 1)
    got = comp_fast_lex_min(inst.graph, inst.assignment(), seed=0)
    assert set(batches) == {1}
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert got.fixed_order == want.fixed_order


class _RelaxationCounter:
    """numpy as the solvers module sees it, counting the dense kernel's
    Floyd-Warshall steps: its calls of np.minimum with ``out``."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def minimum(self, *args, **kw):
        self.steps += "out" in kw
        return np.minimum(*args, **kw)


def test_kernel_calls_per_solve(monkeypatch):
    """Work counts of two seeded solves, which hold on any host: the scipy
    Dijkstra calls, the fixed paths and, on the undirected solve, the dense
    kernel's relaxation steps. A sampled split takes its distance rows, in
    both orientations on a digraph, from one call, and a pressure test its
    two envelopes from one call, so a change that adds a kernel call to the
    descent moves these counts. The dense kernel relaxes only through the
    vertices free in some component of its batch; relaxing through every
    vertex takes more steps."""
    scipy_dijkstra, calls = core._scipy_dijkstra, []

    def counted(*args, **kw):
        calls.append(1)
        return scipy_dijkstra(*args, **kw)

    knn, digraph = synth.cube_knn(300, n_labels=20, seed=0), synth.random_digraph(2000, 50, seed=0)
    monkeypatch.setattr(core, "_scipy_dijkstra", counted)
    monkeypatch.setattr(solvers, "np", relaxations := _RelaxationCounter())
    assert comp_fast_lex_min(knn.graph, knn.assignment(), seed=0).iterations == 189
    assert len(calls) == 81
    assert relaxations.steps == 1154
    calls.clear()
    assert directed_lex_min(digraph.graph, digraph.assignment(), seed=0).result.iterations == 852
    assert len(calls) == 229


@pytest.mark.parametrize("seed", range(3))
def test_one_kernel_call_for_both_orientations(seed, monkeypatch):
    """On a digraph, the two envelopes of a pressure test, the rows out of and
    into the three vertices of a sampled split, and the reachability from
    and to the terminals each take one scipy Dijkstra call."""
    scipy_dijkstra, calls = core._scipy_dijkstra, []

    def counted(*args, **kw):
        calls.append(1)
        return scipy_dijkstra(*args, **kw)

    # built first: the generator's well-posedness check runs scipy too
    g, v0 = random_directed_instance(seed, n_range=(12, 25))
    monkeypatch.setattr(core, "_scipy_dijkstra", counted)
    envelopes.envelope_pair(g, v0, 0.5)
    assert len(calls) == 1
    steepest._steepest_through(g, v0, [0, 1, 2])
    assert len(calls) == 2
    core.check_well_posed(g, v0)
    assert len(calls) == 3


#: Labels whose span over the shortest edge length overflows float64:
#: (n, edges, directed, labels by vertex).
OVERFLOW_INSTANCES = {
    "path5": (5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1e-300), (3, 4, 1.0)], False, {0: 1e308, 4: -1e308}),
    "path3": (3, [(0, 1, 1e-10), (1, 2, 1e-10)], False, {0: 1e300, 2: 0.0}),
    "unit-path5": (5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], False, {0: 1e308, 4: -1e308}),
    "directed4": (4, [(0, 1, 1.0), (1, 2, 1e-300), (2, 3, 1.0)], True, {0: 1e308, 3: -1e308}),
}


@pytest.mark.parametrize("name", OVERFLOW_INSTANCES)
def test_overflowing_gradients_are_rejected(name):
    """Every solver rejects labels whose span over the shortest edge length
    is not finite, before it computes a gradient, instead of ending in a
    traceback or a gradient of inf."""
    n, edges, directed, labels = OVERFLOW_INSTANCES[name]
    g, v0 = Graph(n, edges, directed=directed), PartialAssignment.from_dict(n, labels)
    solves = [comp_inf_min, lambda g, v0: outlier_exact(g, v0, 1), lambda g, v0: outlier_approx(g, v0, 1)]
    solves += [directed_lex_min] if directed else [comp_lex_min, comp_fast_lex_min]
    for solve in solves:
        with pytest.raises(GraphFormatError, match="overflow float64"):
            solve(g, v0)


def test_labels_near_the_float64_range_solve():
    """Labels of ±5e307 on unit lengths span 1e308, which float64 holds: the
    lex-minimizer interpolates them."""
    g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    res = comp_fast_lex_min(g, PartialAssignment.from_dict(5, {0: 5e307, 4: -5e307}))
    np.testing.assert_allclose(res.assignment, [5e307, 2.5e307, 0.0, -2.5e307, -5e307], rtol=1e-12, atol=0)
    assert res.inf_norm == pytest.approx(2.5e307)


def test_empty_instance_solves_to_empty():
    """No vertices and no labels: every solver returns an empty assignment."""
    v0 = PartialAssignment([])
    g, dg = Graph(0, []), Graph(0, [], directed=True)
    results = [solve(g, v0) for solve in (comp_inf_min, comp_lex_min, comp_fast_lex_min)]
    results += [comp_inf_min(dg, v0), directed_lex_min(dg, v0).result]
    for res in results:
        assert res.assignment.shape == (0,) and res.inf_norm == 0.0


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
        # the pendant is flat: only the path a-b-c is fixed, the interval fill sets d
        assert [round(grad, 9) for _, grad in res.fixed_order] == [0.5]

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
        """DENSE_MAX 0 sends every frame through the general loop; 8 sends
        the split children of at most 8 vertices, in batches, and 10**6 every
        frame, the whole graph included, at any alpha, to the dense kernel,
        so the sampling step never runs."""
        instances = [random_instance(seed * 17 + 3) for seed in range(12)]
        refs = [comp_lex_min(g, v0, seed=0).assignment for g, v0 in instances]
        calls, samples = [], []
        dense, sample_split = solvers._fix_dense, solvers._sample_split

        def counting(*args):
            calls.append(args[0].shape[0])  # components in the batch
            return dense(*args)

        def counting_samples(*args):
            samples.append(args[0].n)
            return sample_split(*args)

        monkeypatch.setattr(solvers, "_fix_dense", counting)
        monkeypatch.setattr(solvers, "_sample_split", counting_samples)
        for cutoff in (0, 8, 10**6):
            monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
            calls.clear()
            samples.clear()
            for seed, ((g, v0), ref) in enumerate(zip(instances, refs)):
                out = comp_fast_lex_min(g, v0, seed=seed).assignment
                assert np.abs(out - ref).max() < 1e-8
                assert verify_max_min(g, v0, out).ok
            assert (len(calls) > 0) == (cutoff > 0)
            assert (len(samples) > 0) == (cutoff < 10**6)
            # a split sends its small children in one batch; the whole graph is a batch of one
            assert cutoff != 8 or max(calls) > 1
            assert cutoff != 10**6 or set(calls) == {1}

    def test_small_frames_skip_the_general_loop(self, monkeypatch):
        inst = synth.cube_knn(300, n_labels=20, seed=0)
        rounds = _rounds_on_small_frames(
            monkeypatch, lambda: comp_fast_lex_min(inst.graph, inst.assignment(), seed=0)
        )
        assert rounds and not any(rounds)

    @pytest.mark.parametrize("seed", [None, *range(6)], ids=["cube_knn300", *map(str, range(6))])
    def test_replay_through_fix_path(self, seed):
        """Re-fixing ``fixed_order`` from v0 with ``_fix_path_inplace`` on
        step lengths read from the graph, then filling the leftovers by
        ``_resolve_intervals``, gives the solver's bytes; so the dense
        kernel's matrix lengths are the graph's own."""
        if seed is None:
            inst = synth.cube_knn(300, n_labels=20, seed=0)
            g, v0 = inst.graph, inst.assignment()
        else:
            g, v0 = random_instance(seed * 13 + 2)
        res = comp_fast_lex_min(g, v0, seed=0)
        replay = v0.values.copy()
        for path, _ in res.fixed_order:
            solvers._fix_path_inplace(replay, path, g.path_lengths(path.vertices))
        values, _ = solvers._resolve_intervals(g, v0, replay)
        assert np.array_equal(values, res.assignment)

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
        got = np.sort(np.maximum(gradient_vector(g, res.result.assignment), 0.0))[::-1]
        ref = grid_lex_best(g, v0)
        assert np.all(got <= ref + 2.0 / 64 + 1e-9)
        assert not res.violations

    def test_grad_plus_agrees_across_seeds(self):
        for seed in range(6):
            g, v0 = random_directed_instance(seed)
            base = np.maximum(gradient_vector(g, directed_lex_min(g, v0, seed=0).result.assignment), 0.0)
            for s in (1, 2, 3):
                other = np.maximum(gradient_vector(g, directed_lex_min(g, v0, seed=s).result.assignment), 0.0)
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

    @pytest.mark.parametrize("seed", range(8))
    def test_replay_through_fix_path(self, seed):
        """Re-fixing ``fixed_order`` from v0 with ``_fix_path_inplace`` on
        step lengths read from the graph gives the values pinned before
        interval resolution, to the byte."""
        g, v0 = random_directed_instance(seed + 300, n_range=(10, 40))
        res = directed_lex_min(g, v0, seed=seed)
        replay = v0.values.copy()
        for path, _ in res.result.fixed_order:
            solvers._fix_path_inplace(replay, path, g.path_lengths(path.vertices))
        pinned = np.where(res.fixed_before_resolution, res.result.assignment, np.nan)
        assert np.array_equal(replay, pinned, equal_nan=True)

    @pytest.mark.parametrize(
        "seeds, n_range",
        [(range(6000, 6050), (6, 20)), (range(60), (20, 60))],
        ids=["criterion-9", "n20-60"],
    )
    def test_matches_whole_graph_reference(self, seeds, n_range):
        """The pressure descent fixes the same vertices to the same values, in
        as many paths, as the old loop of one whole-graph steepest path per
        round, and its envelope intervals equal, bound for bound, those of the
        SCC-condensation pass on the old loop's values."""
        for seed in seeds:
            g, v0 = random_directed_instance(seed, n_range=n_range)
            res = directed_lex_min(g, v0, seed=seed)
            values, fixed = reference_directed_fixing(g, v0, seed=seed)
            mask = ~np.isnan(values)
            ambiguous = []
            if not mask.all():
                median = float(statistics.median(v0.values[v0.terminals()].tolist()))
                values, ambiguous = reference_resolve_intervals(g, values, median)
            assert np.array_equal(res.fixed_before_resolution, mask), seed
            assert res.result.iterations == len(fixed), seed
            np.testing.assert_allclose(
                np.maximum(gradient_vector(g, res.result.assignment), 0.0),
                np.maximum(gradient_vector(g, values), 0.0),
                rtol=0,
                atol=1e-9,
            )
            assert list(res.ambiguous) == ambiguous, seed

    def test_dense_and_general_paths_agree(self, monkeypatch):
        """DENSE_MAX 0 sends every directed frame through the general loop; 8
        sends the split children of at most 8 vertices, in batches, and 10**6
        every frame, the whole graph included, at any alpha, to the dense
        kernel."""
        instances = [random_directed_instance(seed + 300, n_range=(20, 60)) for seed in range(12)]
        refs = [np.maximum(gradient_vector(g, directed_lex_min(g, v0).result.assignment), 0.0) for g, v0 in instances]
        calls = []
        dense = solvers._fix_dense

        def counting(*args):
            calls.append(args[0].shape[0])  # components in the batch
            return dense(*args)

        monkeypatch.setattr(solvers, "_fix_dense", counting)
        for cutoff in (0, 8, 10**6):
            monkeypatch.setattr(solvers, "DENSE_MAX", cutoff)
            calls.clear()
            for seed, ((g, v0), ref) in enumerate(zip(instances, refs)):
                res = directed_lex_min(g, v0, seed=seed)
                assert np.abs(np.maximum(gradient_vector(g, res.result.assignment), 0.0) - ref).max() < 1e-9
                assert not res.violations
            assert (len(calls) > 0) == (cutoff > 0)
            assert cutoff != 8 or max(calls) > 1
            assert cutoff != 10**6 or set(calls) == {1}

    def test_small_frames_skip_the_general_loop(self, monkeypatch):
        inst = synth.random_digraph(200, 20, seed=0)
        rounds = _rounds_on_small_frames(
            monkeypatch, lambda: directed_lex_min(inst.graph, inst.assignment(), seed=0)
        )
        assert rounds and not any(rounds)

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
        state = solvers._FastState(g, np.array([2.0, np.nan, np.nan, np.nan, 0.0, np.nan]), np.random.default_rng(0))
        batch = solvers._dense_batch(g, np.zeros(5, dtype=np.int64), np.arange(5), np.arange(5), [0], 5)
        solvers._fix_dense(*batch, 0.0, state)
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

    def test_violations_in_vertex_order(self):
        """Each free vertex off the averaging rule is reported once, in vertex
        order, with its largest and smallest gradient; an isolated free vertex
        is skipped without a numpy warning."""
        g, v0 = random_instance(23, n_range=(20, 20))
        values = np.append(comp_lex_min(g, v0, seed=0).assignment, 0.0)
        g = Graph(g.n + 1, np.column_stack((g.edge_u, g.edge_v, g.edge_len)))
        v0 = PartialAssignment(np.append(v0.values, np.nan))
        free = np.flatnonzero(~v0.terminal_mask())
        values[free[::2]] += np.linspace(0.05, 0.3, free[::2].size)
        want = []
        for x in free[:-1]:
            grads = [(values[x] - values[y]) / w for y, w in _neighbours(g, x)]
            hi, lo = max(grads), min(grads)
            if abs(hi + lo) > 1e-7 * max(1.0, abs(hi), abs(lo)):
                want.append((int(x), hi, lo))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_max_min(g, v0, values, tol=1e-7)
        assert want and report.violations == tuple(want) and not report.ok

    def test_unweighted_neighbor_averaging(self):
        g, v0 = random_instance(4, n_range=(12, 12))
        g = Graph(g.n, [(int(u), int(v), 1.0) for u, v in zip(g.edge_u, g.edge_v)])
        res = comp_lex_min(g, v0, seed=1)
        vals = res.assignment
        for x in np.flatnonzero(~v0.terminal_mask()):
            neigh = vals[np.concatenate([g.edge_v[g.edge_u == x], g.edge_u[g.edge_v == x]])]
            assert vals[x] == pytest.approx(0.5 * (max(neigh) + min(neigh)), abs=1e-7)


def _neighbours(g: Graph, x: int) -> list[tuple[int, float]]:
    """(neighbour, edge length) of every edge at x of an undirected graph."""
    out = g.edge_u == x
    back = g.edge_v == x
    return list(zip(np.concatenate([g.edge_v[out], g.edge_u[back]]).tolist(),
                    np.concatenate([g.edge_len[out], g.edge_len[back]]).tolist()))


def stability_check(
    g: Graph, v0: PartialAssignment, v1: PartialAssignment, seed: int = 0
) -> float:
    """Max pointwise change of the lex-minimizer under a label perturbation;
    bounded by the largest label change."""
    if not np.array_equal(v0.terminal_mask(), v1.terminal_mask()):
        raise ValueError("stability_check needs identical terminal sets")
    a = comp_lex_min(g, v0, seed=seed).assignment
    b = comp_lex_min(g, v1, seed=seed).assignment
    return float(np.abs(a - b).max()) if g.n else 0.0


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
