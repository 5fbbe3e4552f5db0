#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: every workload at small sizes.

    python3 e2ebench/test_smoke.py

Runs run.py --smoke 1 for each workload, untraced and traced, and checks
that the result line has exactly the four result keys, that the
correctness gate passed with nothing failed, and that every metric
BENCHMARK.json names is emitted with its unit and a finite value.
Standard library only; builds the benchmark first if needed.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--smoke", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900, check=False)
    return proc


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        # The gate's verdicts are printed, and none failed.
        gate = [l for l in lines if l.startswith("gate ")]
        self.assertTrue(any("legacy fig12 fingerprint" in l for l in gate))
        self.assertTrue(any("trace fingerprint" in l for l in gate))
        self.assertFalse([l for l in gate if "FAIL" in l])
        # Run context is recorded.
        for key in ("seed", "nproc", "build_type", "wal_fs", "fsync_mode",
                    "git_commit"):
            self.assertTrue(any(l.startswith("context   " + key)
                                for l in lines), key)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        if trace:
            self.assertEqual(metrics["trace.recorder_drops"]["value"], 0)
            self.assertGreater(metrics["trace.coverage"]["value"], 0)
        else:
            for m in declared:
                self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_workloads(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
