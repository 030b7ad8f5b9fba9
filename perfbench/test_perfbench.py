#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/test_perfbench.py

Checks that each workload runs with no failed operation and emits every
metric of BENCHMARK.json with its unit, that the work counts of the
closed-loop workloads repeat exactly, that the layers a workload bypasses
read 0, and that a deliberately corrupted ranking is counted as a failed
operation.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
TINY = ["--scale", "0.05", "--seconds", "2"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CLOSED_LOOP = [w for w in WORKLOADS if w != "serve_churn"]
# On serve_churn these depend on which requests arrive together, so only
# the closed-loop workloads can repeat them exactly.
REPEATABLE_COUNTS = ["core.tables_scored_per_query", "lsh.candidates_per_query",
                     "exec.fused_reuses_per_query"]

_cache = {}


def run(workload, trace, seed=3, extra=()):
    key = (workload, trace, seed, tuple(extra))
    if key not in _cache:
        cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), *TINY, *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            raise AssertionError(f"{cmd} failed:\n{proc.stderr[-3000:]}")
        lines = proc.stdout.strip().splitlines()
        _cache[key] = (json.loads(lines[-2])["info"], json.loads(lines[-1]))
    return _cache[key]


class WorkloadTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    info, result = run(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for key in ("nproc", "simd_tier", "compiler", "build_type", "seed"):
                        self.assertIn(key, info)
                    self.assertEqual(info["seed"], 3)

    def test_end_to_end_metrics_are_positive(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, 0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_counts_repeat_exactly(self):
        for workload in CLOSED_LOOP:
            with self.subTest(workload=workload):
                _, first = run(workload, 1)
                _, second = run(workload, 1, extra=("--seconds", "2.5"))
                for name in REPEATABLE_COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_bypassed_layers_do_no_work(self):
        layers = {w: run(w, 1)[1]["metrics"] for w in WORKLOADS}
        for workload, metrics in layers.items():
            with self.subTest(workload=workload):
                if workload != "lsei_types":
                    self.assertEqual(metrics["lsh.candidates_per_query"]["value"], 0)
                    self.assertEqual(metrics["lsh.build_s"]["value"], 0)
                if workload != "serve_churn":
                    self.assertEqual(metrics["io.snapshot_load_s"]["value"], 0)
                    self.assertEqual(metrics["exec.fused_reuses_per_query"]["value"], 0)
                    self.assertEqual(metrics["exec.fused_bound_us_per_query"]["value"], 0)
                    self.assertEqual(metrics["exec.batch_size_mean"]["value"], 1)
        self.assertGreater(layers["lsei_types"]["lsh.candidates_per_query"]["value"], 0)
        self.assertGreater(layers["serve_churn"]["io.snapshot_load_s"]["value"], 0)
        self.assertGreater(layers["serve_churn"]["serve.hot_swaps"]["value"], 0)
        self.assertGreater(layers["serve_churn"]["exec.fused_bound_us_per_query"]["value"], 0)

    def test_corrupted_ranking_is_a_failed_operation(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, 0, extra=("--corrupt",))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
