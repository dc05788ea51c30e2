"""Run workloads over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 0-9 --seconds 20
    python3 perfbench/sweep.py --workloads dirlex-500 --seeds 0-4 --out sweep.json

Each run is ``run.py`` in its own process, one after another. For every
workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over median) and the unit, plus ``fail_frac`` = failed / attempted
over all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    """What a measurement depends on besides the code."""
    import numpy
    import scipy

    from run import PINNED_THREADS

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_threads": PINNED_THREADS,
        "pythonhashseed": "0",
    }


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    return out


def main(argv=None) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="Run workloads over seeds and summarize.")
    ap.add_argument("--workloads", default=",".join(WORKLOADS), help="comma separated (default: all)")
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write every run and the summary as JSON")
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"machine": machine(), "run_seconds": seconds, "seeds": args.seeds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_one(workload, seed, seconds, args.trace)
            res["seed"] = seed
            runs.append(res)
            line = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items() if v["unit"] != "count")
            print(f"# {workload} seed={seed} wall={res['wall_s']:.1f}s {line}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        for name, metric in runs[0]["metrics"].items():
            summary[name] = dict(stats([r["metrics"][name]["value"] for r in runs]), unit=metric["unit"])
        summary["fail_frac"] = {"median": failed / attempted, "unit": "ratio"}
        report["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "wall_s": stats([r["wall_s"] for r in runs])}
        print(f"{workload}  ({len(runs)} runs, fail_frac {failed}/{attempted})")
        for name, s in summary.items():
            if "q1" in s:
                print(f"  {name:46s} {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {s['spread']:.3f}  {s['unit']}")
            else:
                print(f"  {name:46s} {s['median']:<12.6g} {s['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
