#!/usr/bin/env python3
"""Smoke self-test of the spectrum benchmark.

    python3 perfbench/tests/smoke_test.py

Runs every workload of BENCHMARK.json at smoke size (l_max of a few tens,
references computed in-process), untraced and traced, and checks that each
run passes its correctness gates and prints every end-to-end or per-layer
metric of BENCHMARK.json by name with its unit.  It then copies only
BENCHMARK.json and the benchmark's paths into a scratch directory and checks
that the benchmark refuses to run there: a non-zero exit and no result line.
Takes well under a minute once the benchmark is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def scratch_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench-smoke"


def run_bench(cwd, workload, trace, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        done = run_bench(ROOT, workload, trace, ["--smoke"])
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(expected))
        for name, unit in expected.items():
            self.assertEqual(metrics[name]["unit"], unit, name)
            self.assertIsInstance(metrics[name]["value"], (int, float))
            # The human-readable table above the JSON line names it too.
            self.assertTrue(any(l.split()[:1] == [name] for l in lines[:-1]),
                            name)
        return metrics, lines

    def test_end_to_end_metrics(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics, lines = self.check_run(w["name"], 0, expected)
                for name in expected:
                    if name != "success_frac":
                        self.assertGreater(metrics[name]["value"], 0, name)
                self.assertEqual(metrics["success_frac"]["value"], 1)
                self.assertTrue(any(l.startswith("failed_frac") for l in lines))

    def test_per_layer_metrics(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics, _ = self.check_run(w["name"], 1, expected)
                value = {k: v["value"] for k, v in metrics.items()}
                self.assertLess(value["trace.unattributed_frac"], 0.05)
                if w["name"] == "hier_mdm":
                    self.assertEqual(value["projection.s"], 0)
                    self.assertEqual(value["projection.folds"], 0)
                else:
                    self.assertGreater(value["projection.s"], 0)
                if w["name"] == "serve_sweep":
                    for tier in ("lru_hits", "journal_hits", "computes"):
                        self.assertGreater(value["serve." + tier], 0, tier)

    def test_refuses_without_sources(self):
        iso = scratch_dir() / "isolated"
        shutil.rmtree(iso, ignore_errors=True)
        iso.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", iso)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, iso / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            [*SPEC["command"], "--workload",
             SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=iso, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
