#!/usr/bin/env python3
"""Tests of the benchmark itself, on reduced-size workloads.

    python3 perfbench/test_run.py

Checks that every metric BENCHMARK.json names is printed, by name and with
its unit, on every workload in both trace modes; that the output checks
fail a run on a broken input; and that the determinism check catches a
simulated output that differs between runs.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "5",
         "--seconds", "0", "--small", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done, result


class Metrics(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         run.WORKLOADS)
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in SPEC[key]],
                             table)

    def test_every_metric_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done, result = bench("--workload", workload,
                                         "--trace", trace)
                    self.assertEqual(done.returncode, 0, done.stdout)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    for name, unit in expected.items():
                        self.assertRegex(done.stdout,
                                         rf"\n +{name} +\S+ {unit}\b")
                    if key == "end_to_end":
                        for name in expected:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)


class OutputChecks(unittest.TestCase):
    def test_disk_smaller_than_one_task_fails_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                done, result = bench("--workload", workload, "--trace", "0",
                                     "--break-disk")
                self.assertNotEqual(done.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("CHECK FAILED", done.stdout)
                self.assertIn("disk", done.stdout)

    def test_differing_simulated_output_fails(self):
        rep = {"threads": 2, "traced": False, "wall_s": 1.0, "error": "",
               "simulated": {"makespan_s": 10.0, "sim.evictions": 3},
               "layers": {}, "span_s": {}, "self_s": {}}
        sample = {"errors": [], "reps": [rep, copy.deepcopy(rep)]}
        self.assertEqual(run.check(sample), [])
        other = copy.deepcopy(rep)
        other.update(threads=1)
        other["simulated"]["sim.evictions"] = 4
        sample["reps"].append(other)
        failures = run.check(sample)
        self.assertEqual(len(failures), 1)
        self.assertIn("1 threads", failures[0])
        self.assertIn("sim.evictions", failures[0])

    def test_same_seed_same_inputs(self):
        _, a = bench("--workload", "disk-bipartition", "--trace", "0")
        _, b = bench("--workload", "disk-bipartition", "--trace", "0")
        _, c = bench("--workload", "disk-bipartition", "--trace", "0",
                     "--seed", "6")
        self.assertEqual(a["metrics"]["makespan_s"], b["metrics"]["makespan_s"])
        self.assertNotEqual(a["metrics"]["makespan_s"],
                            c["metrics"]["makespan_s"])


if __name__ == "__main__":
    unittest.main()
