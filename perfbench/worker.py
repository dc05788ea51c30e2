"""The measured process of one benchmark run.

A run holds a few instances (``workloads.INSTANCES_PER_RUN``). The process
takes them in turn: it loads one through the CLI readers, calls the
workload's solver entry point, writes the output with the CLI writer and
checks it, over and over until the time is up. Every solve gets a freshly
loaded instance, so the lazily built indexes are paid where a one-shot CLI
call pays them.

Each phase is timed between two reference blocks (``calibrate.py``), and
the end-to-end metrics are its wall time scaled to the reference speed, so
the host's speed changes cancel. Each end-to-end metric is the mean over
the instances of the instance's median, so one instance that happens to be
hard or easy moves it less. Traced runs alternate untraced and traced
rounds over the instances: the traced ones give the per-layer metrics of one
round (one solve of every instance), and the difference of the traced and
untraced ``solve_s`` medians, summed over the instances, is the tracing
overhead.

Run by ``run.py``; prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate

MIN_SETUP_SAMPLES = 2  # per instance
MIN_SETUP_SECONDS = 0.5
MAX_SETUP_SAMPLES = 200
SETUP_BATCH_S = 0.1  # loads timed between one pair of reference blocks


def _load(edge_path, label_path):
    from lexgraph.cli import read_edge_file, read_label_file

    graph, names = read_edge_file(str(edge_path))
    return graph, names, read_label_file(str(label_path), names)


def _iteration(workload, params, inst, out_path, corrupt, block_before):
    """One load + solve + write + check, with a reference block after the
    load and after the write.

    Returns ((load, solve, write) wall seconds, the same scaled to the
    reference speed, the last block's time, sha256 of the written output,
    solver summary, list of failed checks)."""
    from lexgraph.cli import write_assignment

    t0 = time.perf_counter()
    graph, names, v0 = _load(inst["edges"], inst["labels"])
    t1 = time.perf_counter()
    block_mid = calibrate.block()
    t2 = time.perf_counter()
    outcome = workload.solve(graph, v0, inst["seed"], params)
    t3 = time.perf_counter()
    if corrupt is not None:
        outcome = corrupt(outcome, v0)
    write_assignment(str(out_path), names, outcome.values)
    t4 = time.perf_counter()
    block_after = calibrate.block()
    wall = (t1 - t0, t3 - t2, t4 - t3)
    load_f = calibrate.factor(block_before, block_mid)
    solve_f = calibrate.factor(block_mid, block_after)
    scaled = (wall[0] * load_f, wall[1] * solve_f, wall[2] * solve_f)
    digest = hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
    problems = workload.check(graph, v0, outcome, inst["reference"], params)
    return wall, scaled, block_after, digest, outcome.summary, problems


def _mean_of_medians(per_instance: list[list[float]]) -> float:
    return statistics.fmean(statistics.median(xs) for xs in per_instance)


def measure(workload, params, instances, out_path, seconds, trace, corrupt=None, spans_path=None, log=sys.stderr):
    """Run the closed loop over ``instances`` (dicts with ``seed``, ``edges``,
    ``labels`` and ``reference``) for ``seconds``, and at least one round, or
    for a traced run one untraced and one traced round. The result has no
    metrics when some instance has no successful solve of a kind."""
    from tracer import Tracer, layer_counts, layer_times

    k = len(instances)
    # per instance: scaled and wall samples of each phase, traced samples
    setup, solve, run = ([[] for _ in instances] for _ in range(3))
    setup_wall, solve_wall, run_wall = ([[] for _ in instances] for _ in range(3))
    traced_solve, traced_times = [[] for _ in instances], [[] for _ in instances]
    traced_counts: list[Counter | None] = [None] * k
    digests: list[str | None] = [None] * k
    summaries: list[dict | None] = [None] * k
    attempted = failed = 0
    started = time.perf_counter()
    block = calibrate.block()
    blocks = [block]
    while True:
        i = attempted % k
        inst = instances[i]
        use_trace = trace and (attempted // k) % 2 == 1
        tracer = Tracer().install() if use_trace else None
        attempted += 1
        try:
            wall, times, block, digest, summary, problems = _iteration(
                workload, params, inst, out_path, corrupt, block
            )
        except Exception:  # a solve that raises is a failed solve; keep measuring
            failed += 1
            traceback.print_exc(file=log)
            times, digest, problems = None, None, None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if times is None:  # a raised iteration leaves no closing block
            block = calibrate.block()
        blocks.append(block)
        if times is not None:
            if digests[i] is None:
                digests[i], summaries[i] = digest, summary
                print(f"seed {inst['seed']} output sha256 {digest} summary {json.dumps(summary)}", file=log)
                if inst["reference"].get("sha256", digest) != digest:
                    print(f"note: seed {inst['seed']} output bytes differ from the seed commit's record", file=log)
            elif digest != digests[i]:
                problems.append("output differs from the first solve of this instance")
            if tracer is not None:
                if traced_counts[i] is None:
                    traced_counts[i] = Counter(tracer.counts)
                    if spans_path is not None and i == 0:
                        tracer.write_spans(spans_path)
                        if tracer.missing:
                            print(f"not traced (absent): {', '.join(tracer.missing)}", file=log)
                elif tracer.counts != traced_counts[i]:
                    problems.append("traced counts differ between traced solves of this instance")
                traced_solve[i].append(times[1])
                traced_times[i].append(layer_times(tracer))
            else:
                setup[i].append(times[0])
                solve[i].append(times[1])
                run[i].append(sum(times))
                setup_wall[i].append(wall[0])
                solve_wall[i].append(wall[1])
                run_wall[i].append(sum(wall))
            if problems:
                failed += 1
                print(f"check failed (seed {inst['seed']}): {'; '.join(problems)}", file=log)
        if time.perf_counter() - started >= seconds and attempted >= (2 if trace else 1) * k:
            break

    # set-up is cheap next to a solve on some workloads: repeat it alone, in
    # batches between reference blocks, until its medians rest on enough samples
    batches = 0
    while (
        not trace
        and all(setup)
        and sum(map(len, setup)) < MAX_SETUP_SAMPLES
        and (min(map(len, setup)) < MIN_SETUP_SAMPLES or sum(map(sum, setup_wall)) < MIN_SETUP_SECONDS)
    ):
        i = batches % k
        batches += 1
        batch: list[float] = []
        while not batch or sum(batch) < SETUP_BATCH_S:
            t0 = time.perf_counter()
            _load(instances[i]["edges"], instances[i]["labels"])
            batch.append(time.perf_counter() - t0)
        after = calibrate.block()
        f = calibrate.factor(block, after)
        block = after
        blocks.append(block)
        setup[i].extend(t * f for t in batch)
        setup_wall[i].extend(batch)

    result = {
        "attempted": attempted,
        "failed": failed,
        "instances": [
            {"seed": inst["seed"], "digest": d, "summary": s} for inst, d, s in zip(instances, digests, summaries)
        ],
        "samples": sum(map(len, solve)),
        "metrics": {},
    }
    if not all(solve) or (trace and not all(traced_solve)):
        return result
    if trace:
        metrics = {
            name: sum(statistics.median(t[name] for t in times) for times in traced_times)
            for name in traced_times[0][0]
        }
        metrics.update(layer_counts(sum(traced_counts, Counter())))
        metrics["trace.overhead_s"] = sum(
            statistics.median(traced) - statistics.median(untraced) for traced, untraced in zip(traced_solve, solve)
        )
        result["traced_samples"] = sum(map(len, traced_solve))
    else:
        metrics = {
            "setup_s": _mean_of_medians(setup),
            "solve_s": _mean_of_medians(solve),
            "run_s": _mean_of_medians(run),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["setup_samples"] = sum(map(len, setup))
        result["wall"] = {
            "setup_s": _mean_of_medians(setup_wall),
            "solve_s": _mean_of_medians(solve_wall),
            "run_s": _mean_of_medians(run_wall),
        }
        result["host_speed"] = calibrate.REFERENCE_S / statistics.median(blocks)
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--params", required=True, help="instance parameters as JSON")
    ap.add_argument("--instances", required=True,
                    help="JSON list of {seed, edges, labels, reference}: instance files and expected values")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)
    result = measure(
        WORKLOADS[args.workload],
        json.loads(args.params),
        json.loads(args.instances),
        args.out,
        args.seconds,
        bool(args.trace),
        spans_path=args.spans,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
