"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

The performance and regression-trend checks (criteria 10 and 11) build
graphs up to n = 100,000 and take a few minutes combined.
"""

import math
import time

import numpy as np
import pytest

from lexgraph import (
    PartialAssignment,
    comp_fast_lex_min,
    comp_inf_min,
    comp_lex_min,
    directed_lex_min,
    gradient_vector,
    inf_norm_of,
    outlier_approx,
    outlier_exact,
    verify_max_min,
)
from lexgraph.l0reg import _min_cover
from lexgraph.oracles import (
    apsp_floyd_warshall,
    brute_lex_min,
    brute_min_vc,
    brute_outlier,
    p_laplacian_min,
)
from lexgraph.synth import cube_knn, random_regular

from conftest import arc_matrix, random_dag, random_directed_instance, random_instance, transitive_closure


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _instances_criterion1():
    for seed in range(200):
        yield random_instance(seed, n_range=(5, 30), max_extra_edges=60, terminal_range=(2, 8))


def test_criterion_1_lex_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for seed, (g, v0) in enumerate(_instances_criterion1()):
        assert g.m <= 90
        ref = brute_lex_min(g, v0)
        a = comp_lex_min(g, v0, seed=seed).assignment
        b = comp_fast_lex_min(g, v0, seed=seed + 1).assignment
        worst = max(worst, float(np.abs(ref - a).max()), float(np.abs(ref - b).max()))
    elapsed = time.perf_counter() - started
    _report(1, worst < 1e-8 and elapsed < 30.0,
            f"200 instances, worst max-norm error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_max_min_characterization():
    checked = perturbed = 0
    ok = True
    for seed, (g, v0) in enumerate(_instances_criterion1()):
        values = comp_lex_min(g, v0, seed=seed).assignment
        if not verify_max_min(g, v0, values, tol=1e-7).ok:
            ok = False
            break
        checked += 1
        free = np.flatnonzero(~v0.terminal_mask())
        if free.size == 0:
            continue
        x = int(free[seed % free.size])
        bumped = values.copy()
        bumped[x] += 0.1
        report = verify_max_min(g, v0, bumped, tol=1e-7)
        if report.ok or not any(v == x for v, _, _ in report.violations):
            ok = False
            break
        perturbed += 1
    _report(2, ok, f"{checked} lex outputs pass at 1e-7; {perturbed} perturbations detected")


def test_criterion_3_inf_duality():
    worst = 0.0
    for seed in range(200):
        g, v0 = random_instance(seed + 1000, n_range=(5, 25))
        dist = apsp_floyd_warshall(g)
        terms = v0.terminals()
        alpha = 0.0
        for s in terms:
            for t in terms:
                if s != t and np.isfinite(dist[s, t]) and dist[s, t] > 0:
                    alpha = max(alpha, float((v0.values[s] - v0.values[t]) / dist[s, t]))
        res = comp_inf_min(g, v0, seed=seed)
        worst = max(worst, abs(res.inf_norm - alpha))
    _report(3, worst < 1e-12, f"200 instances, worst |inf_norm - oracle| = {worst:.2e}")


def test_criterion_4_stability_and_monotonicity():
    rng = np.random.default_rng(99)
    worst_translate = worst_scale = worst_perturb = 0.0
    for seed in range(100):
        g, v0 = random_instance(seed + 2000, n_range=(5, 20))
        base = comp_lex_min(g, v0, seed=0).assignment
        eps = float(rng.uniform(0.05, 0.5))
        tmask = v0.terminal_mask()
        shifted = PartialAssignment(np.where(tmask, v0.values + eps, np.nan))
        out = comp_lex_min(g, shifted, seed=0).assignment
        worst_translate = max(worst_translate, float(np.abs(out - base - eps).max()))
        c = float(rng.uniform(0.5, 3.0))
        scaled = PartialAssignment(np.where(tmask, c * v0.values, np.nan))
        out = comp_lex_min(g, scaled, seed=0).assignment
        worst_scale = max(worst_scale, float(np.abs(out - c * base).max()))
        noise = rng.uniform(-eps, eps, g.n)
        noisy = PartialAssignment(np.where(tmask, v0.values + noise, np.nan))
        out = comp_lex_min(g, noisy, seed=0).assignment
        worst_perturb = max(worst_perturb, float(np.abs(out - base).max()) - eps)
    ok = worst_translate < 1e-9 and worst_scale < 1e-9 and worst_perturb < 1e-9
    _report(4, ok, f"100 instances: translate dev {worst_translate:.2e}, "
                   f"scale dev {worst_scale:.2e}, perturb excess {worst_perturb:.2e}")


def _outlier_instances():
    for seed in range(100):
        yield seed, random_instance(seed + 3000, n_range=(6, 14), terminal_range=(3, 12))


def test_criterion_5_l0_exactness():
    worst = 0.0
    ok = True
    for seed, (g, v0) in _outlier_instances():
        k = 1 + seed % 3
        alpha_ref, _ = brute_outlier(g, v0, k)
        res = outlier_exact(g, v0, k)
        worst = max(worst, abs(res.alpha - alpha_ref))
        if len(res.removed) > k or inf_norm_of(g, res.result.assignment) > alpha_ref + 1e-9:
            ok = False
            break
    _report(5, ok and worst < 1e-10, f"100 instances, k in 1..3, worst alpha gap {worst:.2e}")


def test_criterion_6_l0_approximation():
    ok = True
    for seed, (g, v0) in _outlier_instances():
        k = 1 + seed % 3
        alpha_ref, _ = brute_outlier(g, v0, k)
        res = outlier_approx(g, v0, k)
        if len(res.removed) > 2 * k or res.result.inf_norm > alpha_ref + 1e-9:
            ok = False
            break
    _report(6, ok, "100 instances: removals <= 2k and inf-norm <= exact optimum + 1e-9")


def test_criterion_7_min_vertex_cover():
    """The cover ``outlier_exact`` runs, ``_min_cover`` on the boolean
    adjacency of a transitively closed DAG, against brute force."""
    ok = True
    for seed in range(100):
        n, arcs = random_dag(seed + 4000, n_range=(2, 14))
        tc = transitive_closure(n, arcs)
        cover = _min_cover(arc_matrix(n, tc))
        ref = brute_min_vc(n, tc)
        if cover.sum() != len(ref) or not all(cover[u] or cover[v] for u, v in tc):
            ok = False
            break
    _report(7, ok, "100 DAGs: the production cover covers every closure arc at the brute-force size")


def test_criterion_8_lp_limit():
    worst = 0.0
    for seed in range(20):
        g, v0 = random_instance(seed + 5000, n_range=(5, 8), value_range=(0.0, 1.0))
        lex = brute_lex_min(g, v0)
        approx = p_laplacian_min(g, v0, p=64, tol=1e-11).values
        worst = max(worst, float(np.abs(approx - lex).max()))
    _report(8, worst < 0.05, f"20 instances, worst max-norm distance at p=64: {worst:.4f}")


def test_criterion_9_directed_determinism():
    ok = True
    worst = 0.0
    for seed in range(50):
        g, v0 = random_directed_instance(seed + 6000, n_range=(6, 20))
        runs = [directed_lex_min(g, v0, seed=s) for s in range(10)]
        base = np.maximum(gradient_vector(g, runs[0].result.assignment), 0.0)
        for run in runs[1:]:
            spread = np.abs(np.maximum(gradient_vector(g, run.result.assignment), 0.0) - base)
            worst = max(worst, float(spread.max()))
        for run in runs:
            fixed = run.fixed_before_resolution
            outside = ~(fixed[g.edge_u] & fixed[g.edge_v])
            gp = np.maximum(gradient_vector(g, run.result.assignment), 0.0)
            if outside.any() and gp[outside].max() > 1e-9:
                ok = False
    _report(9, ok and worst < 1e-8,
            f"50 instances x 10 seeds: max grad+ spread {worst:.2e}, unfixed edges flat")


@pytest.mark.slow
def test_criterion_10_performance():
    times = {}
    for n in (10_000, 30_000, 100_000):
        inst = random_regular(n, degree=4, n_labels=100, seed=11)
        v0 = inst.assignment()
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            comp_inf_min(inst.graph, v0, seed=5)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
        if n == 100_000:
            t0 = time.perf_counter()
            res = comp_fast_lex_min(inst.graph, v0, seed=5)
            t_fast = time.perf_counter() - t0
            assert verify_max_min(inst.graph, v0, res.assignment, tol=1e-7).ok
    slope = math.log(times[100_000] / times[10_000]) / math.log(10)
    ok = times[100_000] < 10.0 and t_fast < 300.0 and slope < 1.35
    _report(10, ok, f"infmin(1e5)={times[100_000]:.2f}s, fastlexmin(1e5)={t_fast:.1f}s, "
                    f"growth exponent {slope:.2f}")


@pytest.mark.slow
def test_criterion_11_knn_cube_trend():
    errors = {}
    for n in (2000, 10000):
        per_seed = []
        for seed in (7, 42):
            inst = cube_knn(n, dim=4, knn=8, n_labels=100, seed=seed)
            v0 = inst.assignment()
            res = comp_fast_lex_min(inst.graph, v0, seed=1)
            free = np.isnan(v0.values)
            per_seed.append(float(np.abs(res.assignment[free] - inst.truth[free]).mean()))
        errors[n] = float(np.mean(per_seed))
    rel = abs(errors[10000] - errors[2000]) / errors[2000]
    _report(11, rel < 0.25,
            f"mean l1 error {errors[2000]:.4f} (n=2000) vs {errors[10000]:.4f} (n=10000), "
            f"relative change {rel:.1%}")
