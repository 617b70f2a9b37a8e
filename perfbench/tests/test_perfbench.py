"""Tests of the end-to-end benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark with perfbench/run.py's own build step, then checks the
order-statistics helpers, that BENCHMARK.json's names are well formed, that
run.py rejects a result whose metrics differ from BENCHMARK.json, and that a
one-second smoke run of each workload, untraced and traced, passes its
correctness gate (the traced run with a clean conformance verdict).
"""
import json
import os
import re
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)
import spread  # noqa: E402  (perfbench/spread.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BuiltBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()


class StatsTest(BuiltBenchmark):
    def test_cpp_order_statistics(self):
        out = run.build_dir()
        subprocess.run(["cmake", "--build", out, "--target", "perfbench_stats_test"],
                       stdout=subprocess.DEVNULL, check=True)
        proc = subprocess.run([os.path.join(out, "perfbench_stats_test")],
                              stdout=subprocess.PIPE, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout.decode())

    def test_spread_uses_quartiles_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        med, sp = spread.spread(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(med, 14.5)
        self.assertAlmostEqual(sp, (q3 - q1) / 14.5)
        self.assertEqual(spread.spread([2.0, 2.0, 2.0])[1], 0.0)


class CatalogueTest(unittest.TestCase):
    def test_names_units_and_bounds_are_well_formed(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])

    def test_validate_rejects_bad_results(self):
        expected = [{"name": "a", "unit": "s"}]
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"a": {"value": 1.5, "unit": "s"}}}
        self.assertEqual(run.validate(good, expected), [])
        for bad in ({**good, "metrics": {}},
                    {**good, "metrics": {"a": {"value": 1.5, "unit": "ms"}}},
                    {**good, "metrics": {"a": {"value": float("nan"), "unit": "s"}}},
                    {**good, "metrics": {"a": {"value": 1.5, "unit": "s"},
                                         "b": {"value": 1.0, "unit": "s"}}},
                    {**good, "attempted": 0}):
            self.assertNotEqual(run.validate(bad, expected), [], bad)

    def test_unexercised_layers_report_zero(self):
        expected = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "count"}]
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"a": {"value": 1.5, "unit": "s"}}}
        self.assertEqual(run.fill_unexercised(result, expected), ["b"])
        self.assertEqual(result["metrics"]["b"], {"value": 0, "unit": "count"})
        self.assertEqual(run.validate(result, expected), [])


class SmokeTest(BuiltBenchmark):
    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, cwd=ROOT, check=False, timeout=300)
        self.assertEqual(proc.returncode, 0, workload)
        lines = proc.stdout.decode().strip().splitlines()
        info = [json.loads(l)["info"] for l in lines if l.startswith('{"info"')][0]
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], (workload, trace, info["findings"]))
        self.assertEqual(result["failed"], 0)
        self.assertEqual(info["failed_share"]["value"], 0)
        spec = load_spec()
        expected = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        return info, result

    def test_every_workload_passes_its_gate(self):
        for workload in [w["name"] for w in load_spec()["workloads"]]:
            with self.subTest(workload=workload):
                self.run_workload(workload, 0)
                info, result = self.run_workload(workload, 1)
                self.assertEqual(info["conformance_errors"], "0")
                self.assertGreater(result["metrics"]["rt.tasks"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
