#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics (bench/e2e/README.md).

Runs the benchmark --runs times per workload, each run with its own seed
(1..runs), and repeats that --sets times. For every metric it reports each
set's median and quartile spread (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles, and how far each later
set's median moved against the first in the metric's worse direction. Both
are shares, to compare with the metric's bound in BENCHMARK.json.

    python3 bench/e2e/spread.py [--runs 10] [--sets 2] [--workload NAME]
                                [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default=str(ROOT / "build-e2e" / "spread.json"))
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    report = {}
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            runs = [run(workload, seed, bench["run_seconds"])
                    for seed in range(1, args.runs + 1)]
            sets.append({m["name"]: [r[m["name"]] for r in runs]
                         for m in metrics})
        report[workload] = {}
        for m in metrics:
            name = m["name"]
            stats = [summary(s[name]) for s in sets]
            sign = 1.0 if m["better"] == "lower" else -1.0
            first = stats[0]["median"]
            drift = [sign * (s["median"] - first) / first if first else 0.0
                     for s in stats[1:]]
            report[workload][name] = {"bound": m["bound"], "sets": stats,
                                      "worse_by": drift}
            spreads = " ".join(f"{s['spread']:.4f}" for s in stats)
            worse = " ".join(f"{d:+.4f}" for d in drift)
            print(f"{workload:24s} {name:24s} bound {m['bound']:.2f} "
                  f"spread {spreads} worse_by {worse}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
