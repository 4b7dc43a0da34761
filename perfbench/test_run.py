#!/usr/bin/env python3
"""Smoke-scale tests of the benchmark harness.

    python3 perfbench/test_run.py

Builds capsim and the helper like run.py does, then runs a few ops of
every workload at CAP_SCALE=smoke.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SmokeWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        target = os.path.abspath(os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
        run.build(target)
        cls.ctx = run.Context(target, scale="smoke", seed=7)

    @classmethod
    def tearDownClass(cls):
        cls.ctx.close()

    def test_batch_ops_have_no_errors(self):
        for workload in ("sweep-cold", "managed-intervals"):
            r = run.run_workload(self.ctx, workload, 2, setup_samples=2)
            self.assertEqual(r["failed"], 0, workload)
            self.assertEqual(len(r["times"]), 2, workload)
            metrics = run.end_to_end_metrics(r)
            self.assertEqual(sorted(metrics), sorted(run.END_TO_END), workload)
            self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_serve_warm_ops_hit_the_cache_only(self):
        r = run.run_workload(self.ctx, "serve-warm", 6, serve_setups=1)
        self.assertEqual(r["failed"], 0)
        self.assertEqual(len(r["times"]), 6)
        self.assertEqual(r["cache_hits"], 6 * run.FIGURES_LEGS)
        self.assertEqual(r["computed"], 0)

    def test_tampered_reference_is_a_failed_op(self):
        campaigns = run.BATCH_CAMPAIGNS["managed-intervals"]
        refs = run.batch_references(self.ctx, campaigns)
        tampered = [refs[0][:-2] + b"?\n", refs[1]]
        times, failed, _, _ = run.batch_ops(self.ctx, campaigns, tampered, 2)
        self.assertEqual((times, failed), ([], 2))

        reference = run.serve_reference(self.ctx)
        with open(reference, "rb") as f:
            body = f.read()
        with open(reference, "wb") as f:
            f.write(body.replace(b"figure", b"fiGure", 1))
        proc, addr, _ = run.serve_setup(self.ctx)
        try:
            tally = run.serve_ops(self.ctx, addr, reference, 4, 2)
        finally:
            run.stop_server(self.ctx, proc)
        self.assertEqual(tally["failed"], 4)
        self.assertEqual(tally["latencies_ms"], [])

    def test_traced_run_matches_capsim(self):
        work = self.ctx.fresh("trace")
        cmd = [self.ctx.helper, "trace", "--workload", "sweep-cold", "--seed", str(self.ctx.seed), "--rounds", "1",
               "--capsim", self.ctx.capsim, "--work", work, "--jobs", "2"]
        out = json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, env=self.ctx.env, check=True).stdout)
        self.assertEqual(out["errors"], [])
        expected = set(run.PER_LAYER) - {"traced.untraced_op_ms", "capsim.peak_rss_mb"}
        self.assertEqual(set(out["metrics"]), expected)
        for name, value in out["metrics"].items():
            # The helper prints a missing or undefined value as null.
            self.assertIsInstance(value, (int, float), name)
            self.assertTrue(math.isfinite(value), f"{name} = {value}")
        self.assertEqual(out["metrics"]["serve.legs_computed"], 0)
        self.assertGreater(out["metrics"]["cache.refs_classified"], 0)
        self.assertLess(out["metrics"]["traced.uncovered_share"], 0.1)


if __name__ == "__main__":
    unittest.main()
