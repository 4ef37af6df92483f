#!/usr/bin/env python3
"""Tests of the federation benchmark itself, on tiny workloads.

Run from the repository root (the first test builds fedbench):

    python3 fedbench/test_fedbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "fedbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    # Outside the repository the build directory must be the copy's own.
    env = {k: v for k, v in os.environ.items() if cwd == ROOT or k != "CARGO_TARGET_DIR"}
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines, result


def metric_lines(lines):
    """name -> (unit, sample count) from the `metric` report lines."""
    found = {}
    for line in lines:
        fields = line.split()
        if fields and fields[0] == "metric":
            count = next(f for f in fields if f.startswith("n="))
            found[fields[1]] = (fields[3], int(count[2:]))
    return found


class TinyRuns(unittest.TestCase):
    def assert_every_metric(self, lines, result, declared, uncounted=()):
        """Every declared metric is reported with its unit and a sample count;
        names in `uncounted` may have a count of 0."""
        reported = metric_lines(lines)
        for entry in declared:
            name = entry["name"]
            self.assertIn(name, reported, name)
            unit, count = reported[name]
            self.assertEqual(unit, entry["unit"], name)
            self.assertGreaterEqual(count, 0 if name in uncounted else 1, name)
            self.assertEqual(result["metrics"][name]["unit"], entry["unit"], name)
        self.assertEqual(set(result["metrics"]), {e["name"] for e in declared})

    def test_end_to_end_metrics_on_every_workload(self):
        for entry in SPEC["workloads"]:
            with self.subTest(workload=entry["name"]):
                rc, lines, result = run_bench(entry["name"], 0)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_every_metric(lines, result, SPEC["end_to_end"])
                self.assertTrue(any(l.startswith("digest ") and "matched=yes" in l
                                    for l in lines))

    def test_per_layer_metrics_and_self_checks(self):
        for workload in ("hybrid_cifar", "dense_fedavg"):
            with self.subTest(workload=workload):
                rc, lines, result = run_bench(workload, 1)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                # FedAvg never has a client round below a pruning target, so
                # the gate ratio has no denominator there.
                uncounted = ("pruning.gate_open_ratio",) if workload == "dense_fedavg" else ()
                self.assert_every_metric(lines, result, SPEC["per_layer"], uncounted)
                self.assertIn("kept_mflop_sum", " ".join(l for l in lines
                                                          if l.startswith("check ")))
                for line in lines:
                    if line.startswith("check "):
                        self.assertIn(" ok ", line + " ", line)

    def test_forced_digest_mismatch_counts_as_failed(self):
        rc, lines, result = run_bench("hybrid_cifar", 0, "--force-digest-mismatch")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
        self.assertTrue(any(l.startswith("digest ") and "matched=no" in l for l in lines))

    def test_without_sources_fails_without_a_result(self):
        # Only BENCHMARK.json and the benchmark's own directory: the build
        # must fail and no result line may be printed.
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "fedbench", bare / "fedbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines, result = run_bench("hybrid_cifar", 0, cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
