#!/usr/bin/env python3
"""Tests of the campaign benchmark itself.

    python3 perfbench/test_perfbench.py

Builds perfbench_driver like run.py does, then runs every job of each
workload twice at small size (HPCMIXP_QUICK=1 inputs) and checks that
the work is fixed: both runs do the same EV and reach the same verdicts.
Also checks that the driver refuses workloads that could vary their
work and that a traced run reports every per-layer metric listed in
BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = {**os.environ, "HPCMIXP_QUICK": "1"}


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()
        cls.scratch = tempfile.mkdtemp(dir=run.build_dir())
        with open(run.WORKLOADS) as f:
            cls.workloads = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch)

    def drive(self, workload, workloads=run.WORKLOADS, trace=0, seed=1):
        out = os.path.join(self.scratch, "out.json")
        done = subprocess.run(
            [self.driver, "--workloads", workloads, "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
             "--out", out, "--scratch", self.scratch],
            env=SMALL, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            return done.returncode, done.stderr
        with open(out) as f:
            return 0, json.load(f)

    def test_work_repeats_exactly(self):
        for name in self.workloads:
            with self.subTest(workload=name):
                runs = []
                for seed in (1, 2):
                    code, result = self.drive(name, seed=seed)
                    self.assertEqual(code, 0, result)
                    jobs = sorted(
                        (run.job_key(j), [j[f] for f in run.CHECKED],
                         j["final_pass"], j["timed_out"])
                        for p in result["passes"] for j in p["jobs"])
                    runs.append(jobs)
                self.assertEqual(runs[0], runs[1])
                self.assertTrue(all(j[2] and not j[3] for j in runs[0]))

    def test_refuses_timing_dependent_work(self):
        base = dict(self.workloads["apps-binary"])
        cases = {
            "speedup-ranked strategy": {**base, "jobs": [["hotspot", "GA"]]},
            "missing field": {k: v for k, v in base.items() if k != "ladder"},
        }
        for label, workload in cases.items():
            with self.subTest(case=label):
                path = os.path.join(self.scratch, "bad.json")
                with open(path, "w") as f:
                    json.dump({"bad": workload}, f)
                code, _ = self.drive("bad", workloads=path)
                self.assertNotEqual(code, 0)

    def test_trace_reports_every_layer_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            names = {m["name"] for m in json.load(f)["per_layer"]}
        code, result = self.drive("kernels-fork-memo", trace=1)
        self.assertEqual(code, 0, result)
        self.assertLessEqual(names, set(result["layers"]))
        self.assertTrue(any(p["traced"] for p in result["passes"]))
        self.assertTrue(result["l0"])


if __name__ == "__main__":
    unittest.main()
