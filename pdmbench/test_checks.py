#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Each case corrupts one input of one output check through the harness's
--perturb hook (one served price altered, a reserve violated, a tally off by
one, one cold-tier price differing from its all-resident twin) and asserts
that the run reports correct=false and exits non-zero. A clean run of each
workload must pass and print exactly the metrics BENCHMARK.json names: its
end-to-end metrics untraced, its per-layer metrics traced. Short runs only;
takes a few minutes.

    python3 pdmbench/test_checks.py
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


with open(os.path.join(ROOT, "BENCHMARK.json")) as manifest_file:
    MANIFEST = json.load(manifest_file)


def run(workload, perturb="", trace=0):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "5",
               "--seconds", "1", "--trace", str(trace)]
    if perturb:
        command += ["--perturb", perturb]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


class OutputChecks(unittest.TestCase):
    def assert_fails(self, workload, perturb):
        code, result = run(workload, perturb)
        self.assertNotEqual(code, 0, (workload, perturb))
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"], (workload, perturb))

    def assert_passes(self, workload):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace=trace)
            self.assertEqual(code, 0, (workload, trace))
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            expected = {metric["name"]: metric["unit"] for metric in MANIFEST[kind]}
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            self.assertEqual(printed, expected, (workload, trace))

    def test_wire(self):
        self.assert_passes("wire-pipelined")
        for perturb in ("price", "reserve", "tally"):
            self.assert_fails("wire-pipelined", perturb)

    def test_broker(self):
        self.assert_passes("broker-parallel")
        for perturb in ("reserve", "tally"):
            self.assert_fails("broker-parallel", perturb)

    def test_fleet(self):
        self.assert_passes("fleet-cold")
        self.assert_fails("fleet-cold", "twin")


if __name__ == "__main__":
    unittest.main()
