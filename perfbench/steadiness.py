#!/usr/bin/env python3
"""Steadiness evidence for the bounds in BENCHMARK.json.

Runs each workload N times through run.py and prints, per metric, the
median and quartiles of the N values and their spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median. A spread at or below a third of the metric's bound is
marked "ok", one up to the bound "wide", a larger one "TOO NOISY".

    python3 perfbench/steadiness.py                     # 10 runs, seeds 1,2 alternating
    python3 perfbench/steadiness.py --distinct --runs 10   # seeds 1..10
    python3 perfbench/steadiness.py --workloads wide_100k --runs 5 --trace 1
    python3 perfbench/steadiness.py --sets 2 --distinct    # also compare medians

With --sets 2 the whole sweep runs twice and each metric's second median is
compared with the first (worse by more than the bound = "DRIFT"). Raw
values can be kept with --save <file.json>.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else 0.0
    return q1, q2, q3, spread


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="runs cycle through these seeds")
    parser.add_argument("--distinct", action="store_true",
                        help="use seeds first..first+runs-1 instead")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--save")
    args = parser.parse_args()

    group = bench["per_layer"] if args.trace else bench["end_to_end"]
    meta = {m["name"]: m for m in group}
    seeds = ([args.seeds[0] + i for i in range(args.runs)] if args.distinct
             else [args.seeds[i % len(args.seeds)] for i in range(args.runs)])
    raw = {}
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(workload, seed, args.seconds, args.trace)
                    for seed in seeds]
            sets.append(runs)
        raw[workload] = sets
        print(f"== {workload}: {args.runs} runs x {args.sets} set(s), "
              f"seeds {seeds}, {args.seconds} s, trace {args.trace}")
        print(f"{'metric':34} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name in meta:
            values = [r[name] for r in sets[0]]
            q1, q2, q3, spread = summarize(values)
            bound = meta[name].get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else (
                    "wide" if spread <= bound else "TOO NOISY")
                if args.sets == 2:
                    m2 = statistics.median(r[name] for r in sets[1])
                    worse = (m2 - q2) if meta[name]["better"] == "lower" \
                        else (q2 - m2)
                    drift = worse / abs(q2) if q2 else 0.0
                    verdict += f" drift {drift:+.3f}" + (
                        " DRIFT" if drift > bound else "")
            print(f"{name:34} {q1:12.5g} {q2:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}  "
                  f"{verdict}")
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"seeds": seeds, "runs": raw}, f, indent=1)


if __name__ == "__main__":
    main()
