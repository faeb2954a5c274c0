#!/usr/bin/env python3
"""The perf-trajectory gate, tools/bench_compare.py.

Runs the script on the two fixtures in bench_compare_fixtures/ and on
variants of the current file with one value moved:

  - durable_overhead_ratio is lower-is-better: any drop passes, a
    rise within 10% passes, a rise beyond 10% fails;
  - evaluate_simd_speedup is higher-is-better, as every ratio is by
    default: a drop within 10% passes, beyond 10% fails, and its
    2.0 floor still binds;
  - scaling_max_threads_vs_1 is gated even though its baseline is
    below 1 (only *_simd_speedup ratios may read "width unavailable");
  - a gate that is false, or missing from the current run, fails in
    both modes (exit 1);
  - a quick run against a full baseline (or the reverse) exits 2 when
    the baseline has derived ratios or floors, and is only a note
    against a baseline with gates only;
  - a malformed file exits 2: a gate written as a number, a derived
    value written as a bool, a missing header key, a series without
    ops_per_s.

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


class FixtureCase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(FIXTURES, "baseline.json")
        self.current = load("current.json")
        self.base_derived = load("baseline.json")["derived"]

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_on(self, doc, *flags):
        """Exit code and stderr of the script on @doc as current."""
        path = self.write("current.json", doc)
        run = subprocess.run(
            [sys.executable, SCRIPT, *flags, self.baseline, path],
            capture_output=True, text=True)
        return run.returncode, run.stderr

    def gate(self, **derived):
        """Exit code and stderr for current.json with @derived set."""
        doc = copy.deepcopy(self.current)
        doc["derived"].update(derived)
        return self.run_on(doc, "--ratios-only")


class RatioDirections(FixtureCase):
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
        code, err = self.run_on(doc, "--ratios-only")
        self.assertEqual(code, 1)
        self.assertIn("missing from current", err)

    def test_sub_unity_scaling_ratio_is_gated(self):
        self.assertEqual(
            self.base_derived["scaling_max_threads_vs_1"], 0.958)
        code, err = self.gate(scaling_max_threads_vs_1=0.68)
        self.assertEqual(code, 1)
        self.assertIn("derived scaling_max_threads_vs_1", err)


class Gates(FixtureCase):
    def test_false_gate_fails_in_both_modes(self):
        doc = copy.deepcopy(self.current)
        doc["gates"]["fixture_gate"] = False
        for flags in (("--ratios-only",), ()):
            code, err = self.run_on(doc, *flags)
            self.assertEqual(code, 1, flags)
            self.assertIn("gate fixture_gate: false", err)

    def test_gate_missing_from_current_fails(self):
        doc = copy.deepcopy(self.current)
        del doc["gates"]["fixture_gate"]
        for flags in (("--ratios-only",), ()):
            code, err = self.run_on(doc, *flags)
            self.assertEqual(code, 1, flags)
            self.assertIn("gate fixture_gate: missing", err)


class RunSize(FixtureCase):
    def test_size_mismatch_against_ratios_exits_2(self):
        doc = copy.deepcopy(self.current)
        doc["quick"] = False
        for flags in (("--ratios-only",), ()):
            code, err = self.run_on(doc, *flags)
            self.assertEqual(code, 2, flags)
            self.assertIn("only compare runs of one size", err)

    def test_size_mismatch_against_gates_only_is_a_note(self):
        base = load("baseline.json")
        del base["derived"]
        del base["floors"]
        gates_only = self.write("gates_only.json", base)
        doc = copy.deepcopy(self.current)
        doc["quick"] = False
        run = subprocess.run(
            [sys.executable, SCRIPT, "--ratios-only", gates_only,
             self.write("current.json", doc)],
            capture_output=True, text=True)
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("note: quick=True baseline vs quick=False",
                      run.stdout)


class Schema(FixtureCase):
    def assertMalformed(self, doc, what):
        code, err = self.run_on(doc, "--ratios-only")
        self.assertEqual(code, 2, err)
        self.assertIn(what, err)

    def test_gate_written_as_number_is_malformed(self):
        doc = copy.deepcopy(self.current)
        doc["gates"]["fixture_gate"] = 2.0
        self.assertMalformed(doc, "gates fixture_gate")

    def test_derived_written_as_bool_is_malformed(self):
        doc = copy.deepcopy(self.current)
        doc["derived"]["evaluate_simd_speedup"] = True
        self.assertMalformed(doc, "derived evaluate_simd_speedup")

    def test_missing_header_key_is_malformed(self):
        doc = copy.deepcopy(self.current)
        del doc["detected_simd"]
        self.assertMalformed(doc, "header detected_simd")

    def test_series_without_ops_per_s_is_malformed(self):
        doc = copy.deepcopy(self.current)
        del doc["benchmarks"][0]["ops_per_s"]
        self.assertMalformed(doc, "benchmarks[0]")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: bench_compare_test.py <bench_compare.py>")
    SCRIPT = sys.argv.pop(1)
    unittest.main()
