"""Tests of run.py's host fingerprint and baseline rules.

    python3 -m unittest perfbench/test_run.py   (or run.py --self-test)
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


FP = {"nproc": 4, "cpu_model": "AMD EPYC 7B13", "compiler": "gcc 12.2.0",
      "build_type": "RelWithDebInfo", "benchmark_library": "none"}


def compare_output(baselines_dir, cls, metrics):
    saved = run.BASELINES
    run.BASELINES = baselines_dir
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.compare(cls, "sync_call", 0, metrics)
        return out.getvalue()
    finally:
        run.BASELINES = saved


class HostClassTest(unittest.TestCase):
    def test_slug_is_a_safe_file_name(self):
        cls = run.host_class(FP)
        self.assertEqual(cls, "4cpu-amd_epyc_7b13-gcc_12.2.0-relwithdebinfo-bm_none")

    def test_every_field_separates_classes(self):
        base = run.host_class(FP)
        for key, other in (("nproc", 1), ("cpu_model", "Intel Xeon"),
                           ("compiler", "clang 16"), ("build_type", "Debug"),
                           ("benchmark_library", "Debug")):
            self.assertNotEqual(run.host_class(dict(FP, **{key: other})), base,
                                key)


class BaselineTest(unittest.TestCase):
    metrics = {"op_p50_us": {"value": 44.0, "unit": "us"}}

    def test_no_baseline_for_host_class(self):
        with tempfile.TemporaryDirectory() as d:
            out = compare_output(d, run.host_class(FP), self.metrics)
        self.assertIn("no baseline for this host class", out)

    def test_refuses_a_baseline_of_another_class(self):
        cls = run.host_class(FP)
        with tempfile.TemporaryDirectory() as d:
            # A file under this class's name that records another class.
            with open(os.path.join(d, cls + ".json"), "w") as f:
                json.dump({"host_class": "1cpu-other",
                           "workloads": {"sync_call": {"0": {"op_p50_us": 40}}}},
                          f)
            out = compare_output(d, cls, self.metrics)
        self.assertIn("no baseline for this host class", out)
        self.assertNotIn("vs baseline", out)

    def test_compares_within_the_class(self):
        cls = run.host_class(FP)
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, cls + ".json"), "w") as f:
                json.dump({"host_class": cls,
                           "workloads": {"sync_call": {"0": {"op_p50_us": 40}}}},
                          f)
            out = compare_output(d, cls, self.metrics)
        self.assertIn("op_p50_us", out)
        self.assertIn("+10.0%", out)


class SpecTest(unittest.TestCase):
    """BENCHMARK.json stays within its format and agrees with layers.json."""

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        with open(os.path.join(run.HERE, "layers.json")) as f:
            self.layers = json.load(f)

    def test_per_layer_matches_the_mapping(self):
        mapped = [{k: m[k] for k in ("name", "unit", "better")}
                  for m in self.layers["per_layer"]]
        self.assertEqual(self.spec["per_layer"], mapped)

    def test_format(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        for m in metrics:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len({m["name"] for m in metrics}), len(metrics))
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
