#!/usr/bin/env python3
"""Determinism and stationarity tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py        # from the repo root

Each case runs perfbench/run.py (building it on first use) with short runs:
- two runs with one seed give identical count metrics, untraced and traced;
- another seed changes the op stream;
- every run prints its stationarity line (first/last-quarter op mean, cache
  elements and bytes at the start and end of timing) and a correct result.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
WORKLOADS = ("ie_genealogy", "advised_sessions", "local_join")
# Count metrics: deterministic for a seed because they are taken over a fixed
# window of ops, however fast the machine runs.
TRACED_COUNTS = ("dbms.calls_per_op", "cache.evictions_per_op",
                 "intermediate.admitted_per_op", "cache.insertions_per_op",
                 "subsumption.searches_per_op", "cms.exact_hit_ratio")
STATIONARITY = re.compile(
    r"^stationarity \S+ seed=\d+: op_mean_ms q1=[\d.]+ q4=[\d.]+ \| "
    r"modeled_ms_per_op by quarter:( [\d.]+){4} \| cache elements \d+ -> \d+, "
    r"bytes \d+ -> \d+ \| ops=\d+$", re.M)

_cache = {}


def run(workload, seed, trace, repeat=0):
    """Runs once per distinct argument tuple; `repeat` forces a fresh run."""
    key = (workload, seed, trace, repeat)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise AssertionError("%s seed %d trace %d failed:\n%s" % (
                workload, seed, trace, proc.stderr[-2000:]))
        lines = proc.stdout.strip().split("\n")
        _cache[key] = (proc.stdout, json.loads(lines[-1]))
    return _cache[key]


def value(result, name):
    return result["metrics"][name]["value"]


class Determinism(unittest.TestCase):

    def test_same_seed_same_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = run(workload, 5, 0)[1]
                b = run(workload, 5, 0, repeat=1)[1]
                self.assertEqual(value(a, "modeled_ms_per_op"),
                                 value(b, "modeled_ms_per_op"))
                ta = run(workload, 5, 1)[1]
                tb = run(workload, 5, 1, repeat=1)[1]
                for name in TRACED_COUNTS:
                    self.assertEqual(value(ta, name), value(tb, name), name)

    def test_other_seed_changes_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(
                    value(run(workload, 5, 0)[1], "modeled_ms_per_op"),
                    value(run(workload, 6, 0)[1], "modeled_ms_per_op"))


class Reporting(unittest.TestCase):

    def test_runs_are_correct_and_print_stationarity(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    stdout, result = run(workload, 5, trace)
                    self.assertRegex(stdout, STATIONARITY)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
