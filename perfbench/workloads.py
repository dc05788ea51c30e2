"""The benchmark workloads: how each builds its instance, which solver entry
point it calls, and how its output is checked.

A run's instances are a function of its seed alone
(``instance_seeds``). The checks never call ``lexgraph.oracles``:
they use the library's own verifier, gradients computed here from the
written values, and values recorded at the seed commit (``expected.json``,
keyed by workload and instance seed). An instance with no record still gets
every check that needs no record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen

REL_TOL = 1e-9

# A run solves this many instances in turn. Instances of one workload differ
# in solve time by up to ~50% from seed to seed (infmin: 4 or 6 pressure
# splits in its one steepest-path search); averaging over several keeps that
# out of the spread between runs.
INSTANCES_PER_RUN = 6


def instance_seeds(seed: int) -> list[int]:
    """Seeds of the instances of the run with seed ``seed``."""
    return [seed * INSTANCES_PER_RUN + i for i in range(INSTANCES_PER_RUN)]


@dataclass(frozen=True)
class Outcome:
    """What a solve returned, reduced to what the checks and the log need."""

    values: np.ndarray
    summary: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    directed: bool
    params: dict  # full-size instance
    smoke: dict  # tiny instance for the benchmark's own tests
    make: Callable  # (seed, **params) -> (edges, labels)
    inf_optimal: bool  # the output's inf-norm must equal optimal_inf_norm
    solve: Callable  # (graph, v0, seed, params) -> Outcome
    check: Callable  # (graph, v0, outcome, reference, params) -> list of problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _max_abs_gradient(g, values: np.ndarray) -> float:
    grads = (values[g.edge_u] - values[g.edge_v]) / g.edge_len
    if g.directed:
        return float(max(grads.max(), 0.0))
    return float(np.abs(grads).max())


def _labels_kept(v0, values: np.ndarray, skip=()) -> list[str]:
    terminals = [t for t in v0.terminals().tolist() if t not in skip]
    if np.array_equal(values[terminals], v0.values[terminals]):
        return []
    return ["labels changed"]


def _recorded(reference: dict, key: str, got: float) -> list[str]:
    if key in reference and not _close(got, reference[key]):
        return [f"{key}={got!r}, recorded {reference[key]!r}"]
    return []


# --- instances ------------------------------------------------------------


def _random_regular(seed: int, n: int, degree: int, labels: int, **_):
    from lexgraph import synth

    inst = synth.random_regular(n, degree=degree, n_labels=labels, seed=seed)
    return list(gen.synth_edges(inst.graph)), inst.labels


def _cube_knn(seed: int, n: int, dim: int, knn: int, labels: int, **_):
    from lexgraph import synth

    inst = synth.cube_knn(n, dim=dim, knn=knn, n_labels=labels, seed=seed)
    return list(gen.synth_edges(inst.graph)), inst.labels


def _digraph(seed: int, n: int, terminals: int, **_):
    _, edges, labels = gen.random_digraph(n, terminals, seed)
    return edges, labels


def optimal_inf_norm(edges, labels: dict[int, float], directed: bool) -> float:
    """max over terminal pairs s, t of (v(s) - v(t)) / dist(s -> t) (absolute
    value when undirected, positive part when directed), on the lengths and
    labels as written to TSV. Every inf-, lex- and directed lex-minimizer has
    this inf-norm; it is computed with scipy alone.

    Each pair is scored from its higher-valued end, which for undirected
    graphs gives the absolute value. Sources go from the highest value down,
    and a source's search stops at the distance beyond which no terminal can
    beat the best gradient so far: (v(s) - min v) / best. The pair that
    attains the maximum is always within that distance."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    u, v, w = (np.asarray(col) for col in zip(*edges))
    w = np.array([float(f"{x:.12g}") for x in w.tolist()])
    n = int(max(u.max(), v.max())) + 1
    mat = csr_matrix((w, (u, v)), shape=(n, n))
    terminals = np.array(sorted(labels), dtype=np.int64)
    vals = np.array([float(f"{labels[t]:.12g}") for t in terminals.tolist()])
    lowest = vals.min()
    best = 0.0
    for s in np.argsort(-vals, kind="stable").tolist():
        reach = (vals[s] - lowest) / best if best > 0.0 else np.inf
        if reach <= 0.0:
            break
        dist = dijkstra(mat, directed=directed, indices=int(terminals[s]), limit=reach)[terminals]
        dist[s] = np.inf
        best = max(best, float(((vals[s] - vals) / dist).max()))
    return best


def _optimal(g, values: np.ndarray, reference: dict) -> list[str]:
    got = _max_abs_gradient(g, values)
    if not _close(got, reference["optimal_inf_norm"]):
        return [f"inf_norm={got!r}, optimum {reference['optimal_inf_norm']!r}"]
    return []


# --- solves and checks ----------------------------------------------------


def _solve_inf(g, v0, seed, params):
    from lexgraph import comp_inf_min

    res = comp_inf_min(g, v0, seed=seed)
    return Outcome(res.assignment, {"inf_norm": res.inf_norm})


def _check_inf(g, v0, out, reference, params):
    problems = _labels_kept(v0, out.values) + _optimal(g, out.values, reference)
    return problems + _recorded(reference, "inf_norm", _max_abs_gradient(g, out.values))


def _solve_fastlex(g, v0, seed, params):
    from lexgraph import comp_fast_lex_min

    res = comp_fast_lex_min(g, v0, seed=seed)
    return Outcome(res.assignment, {"inf_norm": res.inf_norm, "fixes": res.iterations})


def _check_fastlex(g, v0, out, reference, params):
    from lexgraph import verify_max_min

    problems = _labels_kept(v0, out.values) + _optimal(g, out.values, reference)
    report = verify_max_min(g, v0, out.values)
    if not report.ok:
        problems.append(f"max-min check fails at {len(report.violations)} vertices")
    return problems


def _solve_l0(g, v0, seed, params):
    from lexgraph import outlier_exact

    res = outlier_exact(g, v0, params["k"])
    return Outcome(
        res.result.assignment,
        {"alpha": res.alpha, "removed": len(res.removed), "removed_set": sorted(res.removed)},
    )


def _check_l0(g, v0, out, reference, params):
    removed = out.summary["removed_set"]
    problems = _labels_kept(v0, out.values, skip=set(removed))
    if len(removed) > params["k"]:
        problems.append(f"removed {len(removed)} labels, budget {params['k']}")
    alpha = out.summary["alpha"]
    got = _max_abs_gradient(g, out.values)
    if got > alpha * (1.0 + REL_TOL):
        problems.append(f"completion inf_norm={got!r} above alpha={alpha!r}")
    return problems + _recorded(reference, "alpha", alpha)


def _solve_dirlex(g, v0, seed, params):
    from lexgraph import directed_lex_min

    res = directed_lex_min(g, v0, seed=seed)
    return Outcome(
        res.result.assignment,
        {"inf_norm": res.result.inf_norm, "fixes": res.result.iterations, "violations": len(res.violations)},
    )


def _check_dirlex(g, v0, out, reference, params):
    problems = _labels_kept(v0, out.values) + _optimal(g, out.values, reference)
    if out.summary["violations"]:
        problems.append(f"{out.summary['violations']} residual directed violations")
    if "fixes" in reference and out.summary["fixes"] != reference["fixes"]:
        problems.append(f"fixes={out.summary['fixes']}, recorded {reference['fixes']}")
    return problems + _recorded(reference, "inf_norm", _max_abs_gradient(g, out.values))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "infmin-cli-rr100k",
            "CLI path at n=1e5: TSV parse and Graph build dominate; scipy envelopes, one steepest path; lex machinery idle",
            False,
            dict(n=100_000, degree=4, labels=100),
            dict(n=400, degree=4, labels=10),
            _random_regular,
            True,
            _solve_inf,
            _check_inf,
        ),
        Workload(
            "fastlex-knn3k",
            "fast lex-min on cube-kNN: ~1.7k tiny-component fixes; heap Dijkstra, pressure split, subgraph builds, star search",
            False,
            dict(n=3000, dim=4, knn=8, labels=100),
            dict(n=300, dim=4, knn=6, labels=10),
            _cube_knn,
            True,
            _solve_fastlex,
            _check_fastlex,
        ),
        Workload(
            "l0exact-rr20k-t150",
            "exact l0 with |T|=150 on n=2e4: Python terminal-pair loops, dense terminal distances, matching; only user of l0reg",
            False,
            dict(n=20_000, degree=4, labels=150, k=10),
            dict(n=300, degree=4, labels=20, k=3),
            _random_regular,
            False,
            _solve_l0,
            _check_l0,
        ),
        Workload(
            "dirlex-500",
            "directed lex-min on a random digraph: whole-graph steepest path every round on directed envelopes, then intervals",
            True,
            dict(n=500, terminals=50),
            dict(n=60, terminals=8),
            _digraph,
            True,
            _solve_dirlex,
            _check_dirlex,
        ),
    )
}
