"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def test_benchmark_json_lists_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _run_cli(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(["--workload", "dirlex-500", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _smoke_instances(workload, seed, tmp_path):
    w = WORKLOADS[workload]
    instances = []
    for inst_seed in (seed, seed + 1):
        edges, labels = w.make(inst_seed, **w.smoke)
        edge_path, label_path = gen.write_instance(tmp_path / f"inst{inst_seed}", w.directed, edges, labels)
        reference = run._reference(w, inst_seed, True, edges, labels)
        instances.append({"seed": inst_seed, "edges": edge_path, "labels": label_path, "reference": reference})
    return w, instances


def _measure(workload, tmp_path, corrupt=None, trace=False, seed=5):
    w, instances = _smoke_instances(workload, seed, tmp_path)
    return worker.measure(w, w.smoke, instances, tmp_path / "out.tsv", 0.0, trace, corrupt=corrupt, log=sys.stdout)


def _shift_label(outcome, v0):
    values = outcome.values.copy()
    values[int(v0.terminals()[0])] += 0.5
    return replace(outcome, values=values)


def _shift_free_vertex(outcome, v0):
    values = outcome.values.copy()
    values[int(np.flatnonzero(~v0.terminal_mask())[0])] += 5.0
    return replace(outcome, values=values)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_output_counts_as_failed(workload, tmp_path):
    clean = _measure(workload, tmp_path)
    assert clean["failed"] == 0 and clean["attempted"] == 2
    for corrupt in (_shift_label, _shift_free_vertex):
        res = _measure(workload, tmp_path, corrupt=corrupt)
        assert res["failed"] == res["attempted"] == 2, corrupt.__name__


def test_raising_solve_counts_as_failed(tmp_path):
    def boom(outcome, v0):
        raise RuntimeError("solver blew up")

    res = _measure("fastlex-knn3k", tmp_path, corrupt=boom)
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]


def _traced_path3():
    from lexgraph import Graph, PartialAssignment, comp_fast_lex_min

    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    v0 = PartialAssignment([0.0, None, 1.0])
    with Tracer() as tracer:
        res = comp_fast_lex_min(g, v0, seed=0)
    assert np.allclose(res.assignment, [0.0, 0.5, 1.0])
    return layer_counts(tracer.counts)


def test_traced_counts_on_path3_are_exact_and_repeat():
    # One well-posedness check and one terminal-edge pruning. Seed 0 samples
    # edge 1 = (1, 2) and vertex 1, so two distinct vertices and two
    # single-source Dijkstras over all 3 vertices, each asking for the
    # cached adjacency lists. The pressure split runs two heap envelopes
    # (two more adjacency requests) and keeps no vertex, since nothing is
    # steeper than the path's own 1/2; the path is fixed directly: one fix
    # per split.
    expected = {name: 0 for name, unit in PER_LAYER.items() if unit != "s"}
    expected.update({
        "core.single_source_distances.calls": 2,
        "core.single_source_distances.vertices": 6,
        "core.Graph.adjacency_lists.calls": 4,
        "core.Graph.with_edge_mask.calls": 1,
        "core.Graph.induced_subgraph.calls": 1,
        "envelopes.mod_dijkstra.calls": 2,
        "envelopes.mod_dijkstra.vertices": 6,
        "envelopes.high_pressure_subgraph.calls": 1,
        "envelopes.high_pressure_subgraph.in_vertices": 3,
        "envelopes.high_pressure_subgraph.out_vertices": 0,
        "solvers.path_fixes": 1,
        "solvers.fixes_per_split": 1.0,
    })
    first = _traced_path3()
    assert first == expected
    assert _traced_path3() == first


def test_tracer_restores_every_binding_and_counts_oracle_calls():
    import lexgraph
    from lexgraph import core, oracles, solvers, steepest
    from lexgraph import Graph, PartialAssignment

    before = (core.single_source_distances, steepest.single_source_distances, lexgraph.steepest_path,
              solvers.steepest_path, Graph.__init__, oracles.apsp_floyd_warshall)
    with Tracer() as tracer:
        assert steepest.single_source_distances is core.single_source_distances is not before[0]
        assert solvers.steepest_path is lexgraph.steepest_path is not before[2]
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        oracles.apsp_floyd_warshall(g)
    after = (core.single_source_distances, steepest.single_source_distances, lexgraph.steepest_path,
             solvers.steepest_path, Graph.__init__, oracles.apsp_floyd_warshall)
    assert all(a is b for a, b in zip(before, after))
    assert tracer.counts["oracles.calls"] == 1
    assert tracer.counts["core.Graph.__init__.calls"] == 1


@pytest.mark.parametrize("workload", [name for name, w in WORKLOADS.items() if w.inf_optimal])
def test_pruned_optimal_inf_norm_matches_all_pairs(workload):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from workloads import optimal_inf_norm

    w = WORKLOADS[workload]
    for seed in range(4):
        edges, labels = w.make(seed, **w.smoke)
        u, v, length = (np.asarray(col) for col in zip(*edges))
        length = np.array([float(f"{x:.12g}") for x in length.tolist()])
        n = int(max(u.max(), v.max())) + 1
        terminals = sorted(labels)
        vals = np.array([float(f"{labels[t]:.12g}") for t in terminals])
        dist = dijkstra(csr_matrix((length, (u, v)), shape=(n, n)), directed=w.directed, indices=terminals)
        dist = dist[:, terminals]
        np.fill_diagonal(dist, np.inf)
        brute = float(max(((vals[:, None] - vals[None, :]) / dist).max(), 0.0))
        assert optimal_inf_norm(edges, labels, w.directed) == pytest.approx(brute, rel=1e-12)


def test_host_speed_scaling_cancels_a_uniform_slowdown():
    ref = calibrate.REFERENCE_S
    assert calibrate.factor(ref, ref) == 1.0
    # a phase that took 3 s between blocks running at half speed took 1.5 s
    # at the reference speed
    assert 3.0 * calibrate.factor(2 * ref, 2 * ref) == pytest.approx(1.5)
    assert 0.0 < calibrate.block() < 100 * ref


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, True], ["b", 1.0, 4.0, 0, True], ["b", 5.0, 6.0, 0, True],
                    ["c", 2.0, 3.0, 1, True]]
    total, own = tracer.totals()
    assert total["a"] == 10.0 and own["a"] == 6.0
    assert total["b"] == 4.0 and own["b"] == 3.0
    assert own["c"] == 1.0


def test_digraph_generator_is_seeded_and_well_posed(tmp_path):
    from lexgraph import check_well_posed
    from lexgraph.cli import read_edge_file, read_label_file

    a = gen.random_digraph(80, 8, seed=11)
    assert a == gen.random_digraph(80, 8, seed=11)
    assert a != gen.random_digraph(80, 8, seed=12)
    edge_path, label_path = gen.write_instance(tmp_path / "d", True, a[1], a[2])
    assert edge_path.read_text().startswith("#directed\n")
    g, names = read_edge_file(str(edge_path))
    assert check_well_posed(g, read_label_file(str(label_path), names)).ok
