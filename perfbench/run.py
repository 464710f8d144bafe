#!/usr/bin/env python3
"""Run one workload of the Armada benchmark and print its result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark from source first (CMake, Release, into .bench_build/
at the root; a no-op when up to date), then runs perfbench/src in its own
process. --trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics of the traced run, whose spans land in
.bench_build/spans/<workload>-seed<n>.jsonl.

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. The exit status is 0 only when the
build worked, every correctness check passed, and the result names exactly
the metrics BENCHMARK.json declares for the mode, each with its unit.
--peers/--objects shrink the overlay (smoke_test.py uses them).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)  # a missing file fails the run in main()
    group = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def validate(result, trace):
    """Problems with the result line's shape, or [] when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metrics missing {missing} extra {extra}")
    for name, entry in got.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if name in want and entry.get("unit") != want[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"BENCHMARK.json says {want[name]!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--peers", type=int)
    parser.add_argument("--objects", type=int)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.peers is not None:
        cmd += ["--peers", str(args.peers)]
    if args.objects is not None:
        cmd += ["--objects", str(args.objects)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench exited with status {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench printed no result line")
        return 1
    try:
        problems = validate(result, bool(args.trace))
    except (OSError, ValueError, KeyError) as e:
        problems = [f"cannot check the result against BENCHMARK.json: {e}"]
    if problems:
        for p in problems:
            log(p)
        return 1
    print(lines[-1])  # as measured, every digit kept
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
