#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs: a parent checkout against a change.

Usage:

    python3 tools/ab_pairs.py --parent <parent checkout> --change <checkout> \\
        --workloads wide_100k --seeds 9301-9310 --seconds 20 \\
        --claim wide_100k:queries_per_s

For each workload and seed it runs each checkout's own

    python3 perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace 0

once (one pair), and the side that runs first alternates from pair to pair.
Before the first pair each side runs once at 2000 peers, so its run.py has
built its perfbench (in that checkout's .bench_build/) before anything is
timed. A failed run stops the sweep.

The simulated metrics (every end-to-end metric of BENCHMARK.json except the
five wall metrics) and `failed` are deterministic per seed: the sweep fails
if any of them differs between the two runs of a pair. Per workload and
metric it then prints both sides' median and quartiles
(statistics.quantiles, n=4) and how many pairs the change won (strictly
better). A metric named by --claim <workload>:<metric> gets the verdict of
the gain rule: the change wins at least 9 of every 10 pairs and its median
is better than the parent's by more than the parent's interquartile range.
Every other metric is checked against its BENCHMARK.json bound: WORSE when
the change's median is worse than the parent's by more than the bound, as a
share of the parent's median, and unresolved when it is not but the
parent's interquartile range is wider than the bound and some change run
fails to beat some parent run. Bounds and directions are read from the
parent's BENCHMARK.json.

Exit status: 0 when every run passed, every pair agreed on the simulated
metrics, every claim held and no metric was WORSE; 1 otherwise; 2 on bad
arguments.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

WALL_METRICS = {"setup_s", "peak_rss_mb", "queries_per_s",
                "query_wall_us_p50", "query_wall_us_p99"}


def log(message):
    print(f"ab_pairs.py: {message}", file=sys.stderr, flush=True)


def parse_seeds(specs):
    """'9301-9310' and '7' style arguments, in the order given."""
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(checkout, workload, seed, seconds, extra=()):
    """One run.py run in `checkout`: its result line, or None on failure."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", *extra]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{checkout}: {workload} seed {seed}: run.py exited "
            f"{proc.returncode}")
        return None
    return json.loads(lines[-1])


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def verdict_claim(parent, change, wins, direction):
    """The gain rule: >= 9 of 10 pairs won, median gap > parent IQR."""
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gap = med_c - med_p if direction == "higher" else med_p - med_c
    need = math.ceil(0.9 * len(parent))
    ok = wins >= need and gap > q3 - q1
    return ok, (f"claim {'PASS' if ok else 'FAIL'}: {wins}/{len(parent)} "
                f"won (need {need}), median gap {gap:.6g} vs parent IQR "
                f"{q3 - q1:.6g}")


def verdict_bound(parent, change, direction, bound):
    """Worse than the parent by more than the bound, or unresolved when
    the parent's own spread is wider than the bound and not every change
    run beats every parent run."""
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    if med_p == 0:
        worse = better(med_p, med_c, direction)
        return not worse, "WORSE (parent 0)" if worse else "ok"
    gap = med_c - med_p if direction == "lower" else med_p - med_c
    share = gap / abs(med_p)
    worse = share > bound
    verdict = "WORSE" if worse else "ok"
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if not worse and (q3 - q1) / abs(med_p) > bound and not all_better:
        verdict = "unresolved (parent spread wider than the bound)"
    return not worse, f"{verdict} ({share:+.1%} worse, bound {bound:.0%})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or ranges such as 9301-9310")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--claim", action="append", default=[],
                        help="<workload>:<metric> whose gain is claimed")
    args = parser.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["parent"], "BENCHMARK.json")) as f:
        meta = {m["name"]: m for m in json.load(f)["end_to_end"]}
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"bad --seeds {args.seeds}")
    if not seeds or any(len(c) != 2 or c[1] not in meta for c in claims):
        parser.error("need seeds, and claims as <workload>:<metric>")

    for name, checkout in sides.items():
        if run(checkout, args.workloads[0], seeds[0], 1,
               ("--peers", "2000", "--objects", "2000")) is None:
            log(f"{name} checkout does not build or run")
            return 1

    simulated = [m for m in meta if m not in WALL_METRICS]
    ok = True
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {}
            for name in order:
                result = run(sides[name], workload, seed, args.seconds)
                if result is None:
                    return 1
                pair[name] = result
                runs[name].append(values(result))
            log(f"{workload} seed {seed} ({order[0]} first): queries_per_s "
                + " -> ".join(f"{values(pair[n])['queries_per_s']:.1f}"
                              for n in ("parent", "change")))
            differ = [m for m in simulated if values(pair["parent"])[m] !=
                      values(pair["change"])[m]]
            if pair["parent"]["failed"] != pair["change"]["failed"]:
                differ.append("failed")
            if differ:
                log(f"{workload} seed {seed}: simulated results differ: "
                    f"{', '.join(differ)}")
                ok = False

        print(f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
        for name, m in meta.items():
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            wins = sum(better(c, p, m["better"])
                       for p, c in zip(parent, change))
            if (workload, name) in claims:
                good, verdict = verdict_claim(parent, change, wins,
                                              m["better"])
            else:
                good, verdict = verdict_bound(parent, change, m["better"],
                                              m["bound"])
            ok = ok and good
            p1, p2, p3 = quartiles(parent)
            c1, c2, c3 = quartiles(change)
            print(f"  {name:18} parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
                  f"wins {wins}/{len(seeds)}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
