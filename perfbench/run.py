"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload fastlex-knn3k --seed 3 --seconds 20 --trace 0

Builds the run's instances from the seed and writes them as TSV (untimed),
then measures them in a fresh single-threaded child process (``worker.py``)
with BLAS threads pinned to 1. Prints each metric with its unit, then, as
the last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
Exits non-zero without that line when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {"setup_s": "s", "solve_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _reference(workload, seed: int, smoke: bool, edges, labels) -> dict:
    """Values the checks compare against: the seed commit's record for this
    instance seed, if any, plus what can be computed independently of the solvers."""
    from workloads import optimal_inf_norm

    ref = {}
    record_path = HERE / "expected.json"
    if not smoke and record_path.exists():
        ref.update(json.loads(record_path.read_text()).get(workload.name, {}).get(str(seed), {}))
    if workload.inf_optimal:
        ref["optimal_inf_norm"] = optimal_inf_norm(edges, labels, workload.directed)
    return ref


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Generate the run's instances, measure them in a child process, and
    return the child's result (metrics, counts, each instance's output digest
    and first solve's summary)."""
    from workloads import WORKLOADS, instance_seeds
    import gen

    started = time.monotonic()
    workload = WORKLOADS[workload_name]
    params = workload.smoke if smoke else workload.params
    work = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(exist_ok=True)
    try:
        instances = []
        for inst_seed in instance_seeds(seed):
            edges, labels = workload.make(inst_seed, **params)
            edge_path, label_path = gen.write_instance(work / f"instance{inst_seed}", workload.directed, edges, labels)
            instances.append({
                "seed": inst_seed,
                "edges": str(edge_path),
                "labels": str(label_path),
                "reference": _reference(workload, inst_seed, smoke, edges, labels),
            })
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", workload_name,
            "--params", json.dumps(params),
            "--instances", json.dumps(instances),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--out", str(work / "out.tsv"),
            "--spans", str(spans_dir / f"{workload_name}-seed{seed}.tsv"),
        ]
        remaining = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(cmd, env=_environment(), stdout=subprocess.PIPE, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"measured process exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(result: dict, trace: bool) -> dict:
    """The contract's result object: correct, attempted, failed, metrics."""
    from tracer import PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    missing = [name for name in units if name not in metrics]
    if missing:
        raise RuntimeError(f"run produced no value for {', '.join(missing)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one lexgraph benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instance, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "lexgraph" / "__init__.py").is_file():
        print(f"error: no lexgraph sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        out = summarize(result, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in out["metrics"].items():
        print(f"{name}\t{metric['value']:.6g}\t{metric['unit']}")
    if args.trace:
        print(f"samples\t{result['samples']} untraced and {result['traced_samples']} traced solves")
    else:
        print(f"samples\t{result['samples']} solves, {result['setup_samples']} loads")
        wall = " ".join(f"{name}={value:.6g}" for name, value in result["wall"].items())
        print(f"unscaled wall medians\t{wall}\ts\t(host speed {result['host_speed']:.4g} of the reference)")
        print(f"fail_frac\t{out['failed'] / out['attempted']:.6g}\tratio\t({out['failed']}/{out['attempted']})")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
