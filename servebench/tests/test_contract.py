"""Checks BENCHMARK.json against the benchmark contract and against the
metrics the servebench binary reports.

    cd servebench/tests && python3 -m unittest test_contract
(run.py --self-test builds the binary first and runs this.)
"""

import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BINARY = os.path.join(ROOT, ".bench_build", "servebench", "servebench")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        return json.load(spec_file)


class BenchmarkJsonTest(unittest.TestCase):

    def setUp(self):
        self.spec = load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        command = self.spec["command"]
        self.assertLessEqual(len(command), 32)
        for arg in command:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        paths = self.spec["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for path in paths:
            self.assertRegex(path, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertTrue(any(command[1].startswith(p + "/") for p in paths))

    def test_run_seconds(self):
        seconds = self.spec["run_seconds"]
        self.assertIsInstance(seconds, int)
        self.assertTrue(1 <= seconds <= 60)

    def test_names_units_and_bounds(self):
        seen = set()
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            self.assertNotIn(w["name"], seen)
            seen.add(w["name"])
        e2e = self.spec["end_to_end"]
        self.assertTrue(1 <= len(e2e) <= 16)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        per_layer = self.spec["per_layer"]
        self.assertTrue(1 <= len(per_layer) <= 128)
        for m in per_layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + per_layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))


@unittest.skipUnless(os.path.exists(BINARY), "servebench not built")
class BinaryAgreesTest(unittest.TestCase):

    def test_reported_metrics_match(self):
        spec = load_spec()
        listed = json.loads(subprocess.check_output([BINARY,
                                                     "--list_metrics"]))
        self.assertEqual(listed["workloads"],
                         [w["name"] for w in spec["workloads"]])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in listed[key]],
                [(m["name"], m["unit"]) for m in spec[key]], key)


if __name__ == "__main__":
    unittest.main()
