"""Median and quartiles of every end-to-end metric over many seeds, plus one
traced run per workload, written as a baseline file.

    python3 perfbench/baseline.py --seeds 10 --seconds 54 --out perfbench/BASELINE.json

Each run is `run.py` in a fresh process, one at a time.  The traced run is
repeated to confirm that its work counts are identical.  Exits nonzero if any
run fails its output checks.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# per-layer metrics that are counts of work, not times
COUNT_UNITS = ("count",)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=54)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    doc = {"machine": f"{platform.machine()}, Python {platform.python_version()}",
           "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        ok = ok and all(r["correct"] for r in runs)
        e2e = {k: summary([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
        traced = [run(workload, workloads.DEFAULT_SEED, args.seconds, 1) for _ in range(2)]
        ok = ok and all(r["correct"] for r in traced)
        layer = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        counts = {k for k, v in traced[0]["metrics"].items() if v["unit"] in COUNT_UNITS}
        repeat = all(traced[1]["metrics"][k]["value"] == layer[k] for k in counts)
        ok = ok and repeat
        doc["workloads"][workload] = {
            "seeds": list(range(1, args.seeds + 1)),
            "failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": e2e, "per_layer_seed0": layer, "counts_repeat": repeat,
        }
        for k, s in e2e.items():
            print(f"{workload:10s} {k:12s} median={s['median']:.4f} "
                  f"q1={s['q1']:.4f} q3={s['q3']:.4f} spread={s['spread']:.4f}", flush=True)
        print(f"{workload:10s} traced counts repeat: {repeat}; overhead "
              f"{layer.get('trace.overhead_ratio', float('nan')):.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
