#!/usr/bin/env python3
"""Self-tests of benchmark/run.py: reading BENCHMARK.json and choosing the
metrics of a run. Run from the repository root:

    python3 benchmark/test_run.py
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class LoadSpecTest(unittest.TestCase):
    def setUp(self):
        with open("BENCHMARK.json") as f:
            self.spec = json.load(f)

    def load(self, spec):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(spec, f)
        try:
            return run.load_spec(f.name)
        finally:
            os.unlink(f.name)

    def broken(self, edit):
        spec = copy.deepcopy(self.spec)
        edit(spec)
        with self.assertRaises(ValueError):
            self.load(spec)

    def test_repository_file_is_valid(self):
        spec = run.load_spec("BENCHMARK.json")
        self.assertEqual(spec["command"], ["python3", "benchmark/run.py"])
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, ["whitebox-diva", "edge-blackbox"])

    def test_rejects_extra_or_missing_keys(self):
        self.broken(lambda s: s.update(extra=1))
        self.broken(lambda s: s.pop("per_layer"))
        self.broken(lambda s: s["end_to_end"][0].update(note="x"))
        self.broken(lambda s: s["per_layer"][0].update(bound=0.1))

    def test_rejects_out_of_range_values(self):
        self.broken(lambda s: s["end_to_end"][1].update(bound=0.3))
        self.broken(lambda s: s.update(run_seconds=61))
        self.broken(lambda s: s.update(run_seconds=True))
        self.broken(lambda s: s["end_to_end"][1].update(better="faster"))
        self.broken(lambda s: s["per_layer"][0].update(unit="seconds per call!"))
        self.broken(lambda s: s.update(workloads=s["workloads"][:1]))

    def test_rejects_duplicate_and_bad_names(self):
        self.broken(lambda s: s["per_layer"].append(dict(s["per_layer"][0])))
        self.broken(lambda s: s["per_layer"][0].update(name="-starts-with-dash"))
        self.broken(lambda s: s["workloads"][0].update(why="two\nlines"))

    def test_rejects_paths_leaving_the_repository(self):
        self.broken(lambda s: s.update(paths=["../elsewhere"]))
        self.broken(lambda s: s.update(paths=["/abs"]))
        self.broken(lambda s: s.update(command=["python3", "/tmp/run.py"]))

    def test_requires_setup_s(self):
        self.broken(lambda s: s.update(end_to_end=[m for m in s["end_to_end"]
                                                   if m["name"] != "setup_s"]))


class SelectMetricsTest(unittest.TestCase):
    spec = {"end_to_end": [{"name": "a", "unit": "ms", "better": "lower", "bound": 0.1},
                           {"name": "b", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "c", "unit": "count", "better": "higher"}]}

    def test_picks_the_run_kind(self):
        measured = {"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 2.0, "unit": "s"},
                    "c": {"value": 3, "unit": "count"}, "extra": {"value": 0, "unit": "x"}}
        m, problems = run.select_metrics(self.spec, measured, trace=0)
        self.assertEqual(problems, [])
        self.assertEqual(sorted(m), ["a", "b"])
        m, problems = run.select_metrics(self.spec, measured, trace=1)
        self.assertEqual((sorted(m), problems), (["c"], []))

    def test_reports_missing_wrong_unit_and_non_finite(self):
        measured = {"a": {"value": 1.0, "unit": "s"}, "b": {"value": float("nan"), "unit": "s"}}
        m, problems = run.select_metrics(self.spec, measured, trace=0)
        self.assertEqual(m, {})
        self.assertEqual(len(problems), 2)
        m, problems = run.select_metrics(self.spec, {}, trace=1)
        self.assertEqual(problems, ["c: not measured"])


if __name__ == "__main__":
    unittest.main(verbosity=1)
