#!/usr/bin/env python3
"""Tests of the repo benchmark itself (see perfbench/README.md).

    python3 perfbench/test_perfbench.py

They build the driver through run.py and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_own_checks_can_fail(self):
        p = run([RUN, "--self-test"])
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertNotIn("FAIL", p.stdout)
        self.assertIn("self-test: ok", p.stdout)

    def check_result(self, trace, declared):
        p = run([RUN, "--workload", "kv_read", "--seed", "2",
                 "--seconds", "1", "--trace", str(trace)])
        self.assertEqual(p.returncode, 0, p.stderr)
        lines = p.stdout.splitlines()
        self.assertTrue(any(l.startswith("provenance: ") for l in lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})

    def test_end_to_end_result_matches_benchmark_json(self):
        self.check_result(0, self.bench["end_to_end"])

    def test_per_layer_result_matches_benchmark_json(self):
        self.check_result(1, self.bench["per_layer"])

    def test_fails_without_the_simulator_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run(["perfbench/run.py", "--workload", "btree_insert",
                     "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertFalse(any(l.startswith("{")
                                 for l in p.stdout.splitlines()))
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
