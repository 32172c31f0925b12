#!/usr/bin/env python3
"""Self-test of the refscan benchmark, at tiny scale.

    python3 perfbench/selftest.py

Runs every workload of run.py for about a second with a few kernelish
modules, untraced and traced, and checks that

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, the oracle passed on every step
    and the traced replica matched the CLI byte for byte;
  * every metric BENCHMARK.json declares (end-to-end untraced, per-layer
    traced) is printed by name with its unit, both in the human-readable
    lines and in the result object, and nothing else is;
  * BENCHMARK.json and run.py agree on workloads, metrics and units;
  * run.py refuses, with a non-zero exit and no result, to run in a
    directory that holds only BENCHMARK.json and the benchmark itself.

It is registered as the `perfbench_selftest` test of perfbench/CMakeLists.txt.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark directory free of __pycache__

import run  # noqa: E402  (the driver under test)


def run_bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_spec_matches_driver(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]], run.PER_LAYER)

    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3:
                printed[parts[0]] = parts[2]
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertEqual(printed.get(m["name"]), m["unit"], "%s not printed" % m["name"])
        self.assertTrue(any(line.startswith("provenance: ") for line in lines))

    def test_workloads(self):
        for workload in sorted(run.WORKLOADS):
            for trace, declared in ((0, self.spec["end_to_end"]), (1, self.spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    self.check_result(run_bench(workload, trace), declared)

    def test_refuses_without_sources(self):
        bare = os.path.join(run.WORK_ROOT, "selftest-bare-%d" % os.getpid())
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("kernelish_cold", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
