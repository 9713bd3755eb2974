#!/usr/bin/env python3
"""End-to-end host-cost benchmark: build, run, check (bench/e2e/README.md).

One workload, JSON result as the last stdout line:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload (or just --workload NAME), untraced and traced, each run in
its own process; prints `workload metric value unit` lines and writes the
results as JSON to --out:

    python3 bench/e2e/run.py [--seed N] [--workload NAME] [--out F] [--smoke]

--smoke runs a tenth of each workload's epochs with the minimum number of
reps, for sanity only. Every run checks that the metrics printed are exactly
the ones BENCHMARK.json names, each once and with its unit. The benchmark
builds itself into build-e2e/ at the repository root first.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
BUILD = ROOT / "build-e2e"
EXE = BUILD / "e2e_bench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2e: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def load_schema():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    return bench, workloads, units


def run_one(workload, seed, seconds, trace, smoke, expected_units):
    """Runs one workload in its own process; returns (stdout lines, result).

    Raises RuntimeError when the run fails or its output breaks the schema.
    """
    workdir = BUILD / "run" / f"{workload}-{os.getpid()}"
    cmd = [str(EXE), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--smoke={int(smoke)}", f"--workdir={workdir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"{workload}: result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_units:
        wrong = sorted(n for n, unit in got.items()
                       if n in expected_units and unit != expected_units[n])
        raise RuntimeError(
            f"{workload}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected_units) - set(got))}, "
            f"unnamed {sorted(set(got) - set(expected_units))}, "
            f"wrong unit {wrong}")
    printed = [line.split()[1] for line in lines[:-1]
               if line.startswith(workload + " ")]
    if sorted(printed) != sorted(expected_units):
        raise RuntimeError(f"{workload}: metric lines are not one per metric")
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(
            f"{workload}: {result['failed']} of {result['attempted']} "
            f"checks failed (exit {proc.returncode})")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--out", default=str(BUILD / "BENCH_e2e.json"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    bench, workloads, units = load_schema()
    if args.workload is not None and args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads}")
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.smoke else bench["run_seconds"]

    if args.trace is not None:
        if args.workload is None:
            fail("--trace needs --workload")
        try:
            lines, _ = run_one(args.workload, args.seed, seconds, args.trace,
                               args.smoke, units[args.trace])
        except (RuntimeError, ValueError, subprocess.SubprocessError) as err:
            fail(str(err))
        print("\n".join(lines))
        return

    report = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    ok = True
    for workload in [args.workload] if args.workload else workloads:
        row = report["workloads"][workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                lines, result = run_one(workload, args.seed, seconds, trace,
                                        args.smoke, units[trace])
            except (RuntimeError, ValueError,
                    subprocess.SubprocessError) as err:
                print(f"e2e: {err}", file=sys.stderr)
                ok = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            row.setdefault("info", lines[0].lstrip("# "))
            row[key] = result
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"wrote {args.out}")
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
