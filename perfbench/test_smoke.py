#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload listed in BENCHMARK.json at reduced size (--smoke),
with tracing off and on, and checks that each run exits 0, reports
correct output with no failed operation, and prints every end-to-end
(tracing off) or per-layer (tracing on) metric named in BENCHMARK.json
with its unit, both on its human-readable line and in the final JSON
object.

    python3 perfbench/test_smoke.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0.5", "--trace",
           str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})
        text = "\n".join(lines[:-1])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            pattern = r"^%s\s+= \S+ %s \(" % (re.escape(m["name"]),
                                              re.escape(m["unit"]))
            self.assertRegex(text, re.compile(pattern, re.M), m["name"])
        self.assertIn('"host"', lines[0])


def add_cases():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            def case(self, w=w["name"], trace=trace):
                self.check(w, trace)
            setattr(SmokeTest, "test_%s_trace%d" % (w["name"], trace), case)


add_cases()

if __name__ == "__main__":
    unittest.main()
