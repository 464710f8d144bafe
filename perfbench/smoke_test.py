#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale.

Runs every workload of BENCHMARK.json through run.py on a 2000-peer overlay
for one second, untraced and traced, and asserts that each run exits 0,
passes every correctness check, and prints exactly the declared metrics,
each with its declared unit and a finite value. It also checks that
metric_map.json describes every metric and workload BENCHMARK.json names.

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load(name, base=ROOT):
    with open(os.path.join(base, name)) as f:
        return json.load(f)


BENCH = load("BENCHMARK.json")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--peers", "2000", "--objects", "2000"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        group = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        want = {m["name"]: m["unit"] for m in group}
        got = result["metrics"]
        self.assertEqual(list(got), list(want), "names and their order")
        for name, entry in got.items():
            self.assertEqual(entry["unit"], want[name], name)
            self.assertTrue(math.isfinite(entry["value"]), name)
        if trace:
            spans = os.path.join(ROOT, ".bench_build", "spans",
                                 f"{workload}-seed7.jsonl")
            with open(spans) as f:
                first = json.loads(f.readline())
            self.assertEqual(set(first), {"id", "parent", "query", "name",
                                          "start_us", "end_us"})

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)

    def test_unknown_workload_fails_without_a_result(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_metric_map_covers_benchmark(self):
        metric_map = load("metric_map.json", BENCH_DIR)
        end_to_end = [m["name"] for m in BENCH["end_to_end"]]
        self.assertEqual(sorted(metric_map["workloads"]), sorted(WORKLOADS))
        self.assertEqual(sorted(metric_map["end_to_end"]), sorted(end_to_end))
        layers = [m["name"] for m in BENCH["per_layer"]]
        self.assertEqual(sorted(metric_map["per_layer"]), sorted(layers))
        for name, entry in metric_map["per_layer"].items():
            self.assertTrue(set(entry["moves"]) <= set(end_to_end), name)
            self.assertTrue(set(entry["on"]) <= set(WORKLOADS), name)
            self.assertTrue(entry["definition"], name)


if __name__ == "__main__":
    unittest.main()
