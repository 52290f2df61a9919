"""Self-test of the benchmark, at a toy size.

Run from the root of a qweyl checkout:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is printed with its
unit and no failure, that the exact counts repeat between two traced runs
of one seed, that a corrupted expected digest is counted as a failure, and
that the benchmark refuses to run outside a checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

import run
import workloads
from tracer import EXACT_COUNTS

RUN_PY = os.path.join(run.HERE, "run.py")


def _spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN_PY, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class MetricsPrinted(unittest.TestCase):

    def _check(self, trace: int, section: str) -> None:
        wanted = {m["name"]: m["unit"] for m in _spec()[section]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = _bench("--workload", workload,
                              "--seed", str(workloads.PRIMARY_SEED),
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)  # fail_ratio is 0
                self.assertGreater(result["attempted"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, wanted)
                self.assertIn("fail_ratio", proc.stdout)

    def test_end_to_end_metrics(self):
        self._check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self._check(1, "per_layer")


class ExactCounts(unittest.TestCase):

    def test_counts_repeat_between_traced_runs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                counts = []
                for _ in range(2):
                    r, metrics = run.run_workload(
                        workload, workloads.HOLDOUT_SEED, 1, trace=True,
                        size="tiny")
                    self.assertEqual(r.failed, 0, r.problems)
                    counts.append({k: metrics[k][0] for k in EXACT_COUNTS})
                self.assertEqual(counts[0], counts[1])


class DigestGate(unittest.TestCase):

    def test_corrupted_digest_is_a_failure(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                seed = workloads.PRIMARY_SEED
                victim = workloads.command_key(
                    workloads.commands(workload, seed, "tiny")[0])
                expected = dict(run.load_digests())
                expected[victim] = "0" * 64
                r, metrics = run.run_workload(workload, seed, 0.1, trace=False,
                                              size="tiny", expected=expected)
                self.assertGreaterEqual(r.failed, 1)
                self.assertIn(f"digest mismatch: {victim}", r.problems)
                self.assertTrue(metrics)

    def test_refuses_to_run_outside_a_checkout(self):
        os.makedirs(run.SPANS_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.SPANS_DIR) as empty:
            proc = _bench("--workload", "wide", "--seed", "1", "--size",
                          "tiny", cwd=empty)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
