#!/usr/bin/env python3
"""Direction-aware ratio gate of tools/bench_compare.py --ratios-only.

Runs the script on the two fixtures in bench_compare_fixtures/ and on
variants of the current file with one derived ratio moved:

  - durable_overhead_ratio is lower-is-better: any drop passes, a
    rise within 10% passes, a rise beyond 10% fails;
  - evaluate_simd_speedup is higher-is-better, as every ratio is by
    default: a drop within 10% passes, beyond 10% fails, and its
    2.0 floor still binds.

Usage: bench_compare_test.py <path to bench_compare.py>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "bench_compare_fixtures")
SCRIPT = None  # Set from argv in main.


def load(name):
    with open(os.path.join(FIXTURES, name)) as f:
        return json.load(f)


class RatioDirections(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(FIXTURES, "baseline.json")
        self.current = load("current.json")
        self.base_derived = load("baseline.json")["derived"]

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, **derived):
        """Exit code and stderr for current.json with @derived set."""
        doc = copy.deepcopy(self.current)
        doc["derived"].update(derived)
        path = os.path.join(self.tmp.name, "current.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        run = subprocess.run(
            [sys.executable, SCRIPT, "--ratios-only", self.baseline,
             path], capture_output=True, text=True)
        return run.returncode, run.stderr

    def test_fixture_pair_passes(self):
        run = subprocess.run(
            [sys.executable, SCRIPT, "--ratios-only", self.baseline,
             os.path.join(FIXTURES, "current.json")],
            capture_output=True, text=True)
        self.assertEqual(run.returncode, 0, run.stderr)

    def test_lower_durable_overhead_passes(self):
        base = self.base_derived["durable_overhead_ratio"]
        for factor in (0.5, 0.85, 1.0):
            code, err = self.gate(durable_overhead_ratio=base * factor)
            self.assertEqual(code, 0, f"x{factor}: {err}")

    def test_durable_overhead_rise_within_tolerance_passes(self):
        base = self.base_derived["durable_overhead_ratio"]
        code, err = self.gate(durable_overhead_ratio=base * 1.09)
        self.assertEqual(code, 0, err)

    def test_durable_overhead_rise_beyond_tolerance_fails(self):
        base = self.base_derived["durable_overhead_ratio"]
        code, err = self.gate(durable_overhead_ratio=base * 1.11)
        self.assertEqual(code, 1)
        self.assertIn("durable_overhead_ratio", err)
        self.assertIn("lower is better", err)

    def test_higher_is_better_ratio_keeps_its_gate(self):
        base = self.base_derived["evaluate_simd_speedup"]
        code, err = self.gate(evaluate_simd_speedup=base * 1.5)
        self.assertEqual(code, 0, err)
        code, err = self.gate(evaluate_simd_speedup=base * 0.91)
        self.assertEqual(code, 0, err)
        code, err = self.gate(evaluate_simd_speedup=base * 0.89)
        self.assertEqual(code, 1)
        self.assertIn("derived evaluate_simd_speedup", err)

    def test_floor_still_binds(self):
        code, err = self.gate(evaluate_simd_speedup=1.5)
        self.assertEqual(code, 1)
        self.assertIn("floor evaluate_simd_speedup", err)

    def test_missing_ratio_fails(self):
        doc = copy.deepcopy(self.current)
        del doc["derived"]["durable_overhead_ratio"]
        path = os.path.join(self.tmp.name, "current.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        run = subprocess.run(
            [sys.executable, SCRIPT, "--ratios-only", self.baseline,
             path], capture_output=True, text=True)
        self.assertEqual(run.returncode, 1)
        self.assertIn("missing from current", run.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: bench_compare_test.py <bench_compare.py>")
    SCRIPT = sys.argv.pop(1)
    unittest.main()
