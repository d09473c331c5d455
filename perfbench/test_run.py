#!/usr/bin/env python3
"""Smoke tests of perfbench/run.py on tiny graphs (n = 256).

    python3 perfbench/test_run.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit for every workload, that the correctness gate trips on an inverted
verdict and on a wrong recorded total, and that the runner fails without
a result outside a full source checkout.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "smoke"


def smoke_spec(every_seed=None, invert=False):
    """workloads.json with n = 256 and no recorded totals (they are for full n);
    invert expects the opposite verdict class."""
    spec = json.loads((HERE / "workloads.json").read_text())
    flip = {"accept": "reject", "reject": "accept"}
    for w in spec["workloads"].values():
        w["n"] = 256
        w["expect"] = {"every_seed": dict(every_seed or {}), "pinned_seed": 1,
                       "at_pinned_seed": {}}
        if invert:
            w["verdict"] = flip[w["verdict"]]
    return spec


def run(workload, trace, spec):
    SCRATCH.mkdir(parents=True, exist_ok=True)
    spec_path = SCRATCH / f"spec-{workload}-{trace}.json"
    spec_path.write_text(json.dumps(spec))
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--spec", str(spec_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stdout


class SmokeTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        # Failing runs keep their inputs for inspection; these fail on purpose.
        for d in (ROOT / ".perfbench").glob("*-s7-*"):
            shutil.rmtree(d, ignore_errors=True)
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_every_metric_with_unit(self):
        spec = smoke_spec()
        for w in BENCH["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, res, out = run(w["name"], trace, spec)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(res["correct"], out)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in res["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)

    def test_gate_trips_on_inverted_verdict(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, res, out = run("grid-compiled", trace,
                                     smoke_spec(invert=True))
                self.assertNotEqual(code, 0, out)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])

    def test_gate_trips_on_wrong_recorded_total(self):
        code, res, out = run("apollonian-fiber", 0, smoke_spec({"rounds": 1}))
        self.assertNotEqual(code, 0, out)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)

    def test_fails_without_result_outside_a_checkout(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "far-compiled",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
