#!/usr/bin/env python3
"""Schema-only test of the benchmark: BENCHMARK.json's shape, and the names
and units in the harness's result line. It asserts no timings.

The output checks run the real harness on the shortest workload, once plain
and once traced (a few minutes with a warm build).

Usage: python3 -m unittest perfbench/test_schema.py   (from the repo root)
"""

import json
import re
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertIn(spec["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class ResultLineTest(unittest.TestCase):
    workload = "words-sweep"

    def result(self, trace: int) -> dict:
        spec = load_spec()
        cmd = spec["command"] + ["--workload", self.workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, result: dict, declared: list):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics(self):
        self.check(self.result(0), load_spec()["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(self.result(1), load_spec()["per_layer"])


if __name__ == "__main__":
    unittest.main()
