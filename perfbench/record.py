"""Record the values the output checks compare against, per workload and
instance seed.

    python3 perfbench/record.py --seeds 0-9

Solves each instance of each run seed once (through ``run.py``'s measured
process; run seed s has the instance seeds ``workloads.instance_seeds(s)``)
and writes ``expected.json``: the inf-norm, fix count or l0 threshold the
checks in ``workloads.py`` need, and the sha256 of the written output as the
determinism record. Run it only on a commit whose outputs are trusted; the
benchmark's checks then hold later commits to these values. Existing entries
are checked while re-recording, so delete ``expected.json`` first to record
values that are meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# summary fields kept per workload; see the checks in workloads.py
RECORDED = {
    "infmin-cli-rr100k": ("inf_norm",),
    "fastlex-knn3k": (),
    "l0exact-rr20k-t150": ("alpha",),
    "dirlex-500": ("inf_norm", "fixes"),
}


def main(argv=None) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import run
    from sweep import parse_seeds

    ap = argparse.ArgumentParser(description="Record expected outputs per workload and seed.")
    ap.add_argument("--seeds", default="0-9", help="run seeds")
    ap.add_argument("--workloads", default=",".join(RECORDED))
    args = ap.parse_args(argv)
    path = HERE / "expected.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            res = run.run(workload, seed, 0.0, trace=False)
            if res["failed"]:
                raise SystemExit(f"{workload} seed {seed}: a check failed; nothing recorded")
            for inst in res["instances"]:
                entry = {key: inst["summary"][key] for key in RECORDED[workload]}
                entry["sha256"] = inst["digest"]
                record.setdefault(workload, {})[str(inst["seed"])] = entry
                print(workload, inst["seed"], entry, flush=True)
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
