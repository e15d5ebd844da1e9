"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads app_16k,api_regen]
                                [--trace] [--out perfbench/baseline.json]

Runs run.py once per (seed, workload), one run at a time, cycling through
the workloads for each seed so slow phases of a shared machine spread over
all of them. The spread of a metric is (q3 - q1) / median over its runs,
with quartiles from statistics.quantiles(values, n=4). With --trace, one
traced run per workload (first seed) adds the per-layer numbers. With
--out, everything is written as JSON, as perfbench/baseline.json was.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last seed, inclusive")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            result = run_once(w, seed, 0)
            if not result["correct"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} builds "
                      "failed", file=sys.stderr)
            runs[w].append(result)

    report = {"nproc": os.cpu_count(), "run_seconds": BENCHMARK["run_seconds"],
              "seeds": seeds, "workloads": {}}
    for w in names:
        entry = {"why": workloads.WHY[w], "size": workloads.build(w, seeds[0]).size_params(),
                 "builds": [r["attempted"] for r in runs[w]],
                 "failed": sum(r["failed"] for r in runs[w]), "end_to_end": {}}
        print(f"{w}: {len(seeds)} runs, builds per run {entry['builds']}")
        print(f"  {'failed_ratio':<15} {entry['failed'] / sum(entry['builds']):>19.6g} -        "
              f"({entry['failed']} of {sum(entry['builds'])} builds)")
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs[w]])
            stats["unit"] = runs[w][0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"  {metric:<15} median {stats['median']:>12.6g} {stats['unit']:<8} "
                  f"spread {stats['spread']:6.1%} (bound {bound:.0%}){flag}")
        if args.trace:
            traced = run_once(w, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["size"]["tokens"] = entry["per_layer"]["frontend.tokens"]
        report["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
