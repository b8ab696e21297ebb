"""Checks of the benchmark's tracer and reference. Run from a checkout root:

    python3 perfbench/selftest.py

Synthetic span trees test the self-time and nesting rules; two tiny traced
jobs test the wrappers, the stage clock and the query counts end to end.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

import checks
import inputs
import spans
from run import child_env

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent, peak=0):
    return [name, start, end, parent, 0, peak]


class SpanRules(unittest.TestCase):
    TREE = [
        span("job", 0.0, 10.0, -1),
        span("cli.solve", 1.0, 4.0, 0),
        span("boolmat.max_witness_oracle", 2.0, 3.0, 1, peak=500),
        span("cli.emit", 5.0, 9.0, 0),
        span("io.canonical_json", 5.5, 8.0, 3, peak=900),
    ]

    def test_self_times_partition_the_root(self):
        own = spans.self_times(self.TREE)
        self.assertEqual(own, [3.0, 2.0, 1.0, 1.5, 2.5])
        self.assertEqual(sum(own), 10.0)
        self.assertEqual(spans.nesting_errors(self.TREE), [])

    def test_layer_metrics(self):
        m = spans.layer_metrics([{"spans": self.TREE, "queries": {"search": 6, "scalar": 4}}], [10.5])
        self.assertEqual(m["boolmat.oracle_s"], 1.0)
        self.assertEqual(m["io.emit_s"], 2.5)
        self.assertEqual(m["cli.self_s"], 3.5)
        self.assertEqual(m["cli.solve_s"], 3.0)
        self.assertEqual(m["cli.emit_s"], 4.0)
        self.assertEqual(m["trace.remainder_s"], 3.5)  # 0.5 outside the root + 3.0 root self
        self.assertEqual(m["io.peak_mb"], 900 / 1024)
        self.assertEqual(m["qsim.queries"], 10)
        self.assertEqual(m["qsim.queries_per_s"], 0.0)  # no search time recorded

    def test_overlapping_siblings(self):
        bad = [span("job", 0, 10, -1), span("a", 1, 4, 0), span("b", 3, 5, 0)]
        self.assertTrue(any("overlaps" in e for e in spans.nesting_errors(bad)))

    def test_child_outside_parent(self):
        bad = [span("job", 0, 10, -1), span("a", 1, 4, 0), span("b", 3, 5, 1)]
        self.assertTrue(any("leaves its parent" in e for e in spans.nesting_errors(bad)))

    def test_unclosed_span(self):
        bad = [span("job", 0, 10, -1), span("a", 1, None, 0)]
        self.assertTrue(any("not closed" in e for e in spans.nesting_errors(bad)))

    def test_report_timing_must_match_stages(self):
        tree = [span("job", 0, 10, -1), span("cli.load", 1, 2, 0),
                span("cli.solve", 2, 5, 0), span("cli.verify", 5, 6, 0)]
        good = {"load_s": 1.0, "solve_s": 3.0, "verify_s": 1.0}
        self.assertEqual(spans.check_job({"spans": tree}, 11.0, good), [])
        self.assertTrue(spans.check_job({"spans": tree}, 11.0, {**good, "solve_s": 2.9}))
        self.assertTrue(spans.check_job({"spans": tree}, 9.0, good))  # root longer than the job


class Reference(unittest.TestCase):
    def test_max_witness_matches_brute_force(self):
        for n, q, d in ((7, 5, 0.5), (33, 130, 0.1), (64, 64, 0.9)):
            rng = np.random.default_rng(n)
            a = (rng.random((n, q)) < d).astype(np.uint8)
            b = (rng.random((q, n)) < d).astype(np.uint8)
            both = a[:, :, None] & b[None, :, :]
            idx = np.arange(q)[None, :, None]
            want = np.where(both.any(axis=1), np.where(both == 1, idx, -1).max(axis=1), -1)
            np.testing.assert_array_equal(checks.max_witness(a, b), want)


class TracedJobs(unittest.TestCase):
    """Tiny real jobs under trace_job.py."""

    @classmethod
    def setUpClass(cls):
        cls.root = Path.cwd()
        cls.work = cls.root / ".perfbench_work" / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        a = inputs.bernoulli_matrix(24, 0.3, 5, 0)
        b = inputs.bernoulli_matrix(24, 0.3, 5, 1)
        inputs.write_matrix_binary(cls.work / "a.bmat", a)
        inputs.write_matrix_text(cls.work / "b.txt", b)
        cls.ref = checks.max_witness(a, b)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def trace(self, *args):
        cmd = [sys.executable, str(HERE / "trace_job.py"), "spans.json", "3",
               *args, "--a", "a.bmat", "--b", "b.txt", "--verify", "--timing", "--out", "r.json"]
        subprocess.run(cmd, cwd=self.work, env=child_env(self.root), check=True, timeout=120)
        trace = json.loads((self.work / "spans.json").read_text())
        report = json.loads((self.work / "r.json").read_text())
        return trace, report

    def test_oracle_job(self):
        trace, report = self.trace("maxwit", "--algo", "oracle")
        s = trace["spans"]
        self.assertEqual(spans.check_job(trace, float("inf"), report["timing"]), [])
        self.assertEqual(s[0][0], "job")
        self.assertTrue(all(x[4] == 3 for x in s))
        names = {x[0]: x for x in s}
        for stage in ("cli.load", "cli.solve", "cli.verify", "cli.emit"):
            self.assertEqual(s[names[stage][3]][0], "job")
        by_parent = {(x[0], s[x[3]][0]) for x in s if x[3] >= 0}
        self.assertIn(("io.load_matrix", "cli.load"), by_parent)
        self.assertIn(("boolmat.max_witness_oracle", "cli.solve"), by_parent)
        self.assertIn(("boolmat.max_witness_oracle", "cli.verify"), by_parent)
        self.assertIn(("boolmat.witness_violations", "cli.verify"), by_parent)
        self.assertIn(("io.canonical_json", "cli.emit"), by_parent)
        self.assertIn(("boolmat.WitnessMatrix.to_json_dict", "cli.emit"), by_parent)
        got = np.full(self.ref.shape, -1)
        for e in report["result"]["entries"]:
            got[e["i"], e["j"]] = e["witness"]
        np.testing.assert_array_equal(got, self.ref)

    def test_query_count_matches_report(self):
        trace, report = self.trace("maxwit", "--algo", "alg4", "--seed", "9")
        self.assertEqual(spans.check_job(trace, float("inf"), report["timing"]), [])
        self.assertEqual(trace["queries"]["search"], report["stats"]["total_queries"])
        self.assertTrue(any(x[0] == "qsim.algorithm4" for x in trace["spans"]))
        self.assertTrue(any(x[0] == "witness.largest_nonzero_strip" for x in trace["spans"]))


if __name__ == "__main__":
    unittest.main()
