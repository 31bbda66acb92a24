#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

On one seed, two runs must give exactly equal counts and quality metrics:
placement.anneals, cache.result_hits, serve.dup_anneal_ratio,
success_geomean and exec_us_geomean. A second seed must change
success_geomean, which shows the seed reaches the compiler.

    python3 benchmark/test_determinism.py

Run from the root of a checkout; each run goes through benchmark/run.py
with a one-second budget (one timed pass), so the whole check takes a few
minutes.
"""

import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 7
OTHER_SEED = 8


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"with {proc.returncode}:\n{proc.stdout}"
                             f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload}: failed output checks")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


class Determinism(unittest.TestCase):
    def assert_repeats(self, workload: str, trace: int, names) -> dict:
        first = run(workload, SEED, trace)
        second = run(workload, SEED, trace)
        for name in names:
            self.assertEqual(first[name], second[name],
                             f"{workload}: {name} differs between two runs")
        return first

    def test_quality_repeats_and_follows_the_seed(self):
        for workload in ("paper-nocache", "import-windowed"):
            with self.subTest(workload=workload):
                first = self.assert_repeats(
                    workload, 0, ("success_geomean", "exec_us_geomean"))
                other = run(workload, OTHER_SEED, 0)
                self.assertNotEqual(first["success_geomean"],
                                    other["success_geomean"],
                                    f"{workload}: the seed does not reach "
                                    "the compiler")

    def test_anneal_count_repeats(self):
        layers = self.assert_repeats("paper-nocache", 1, ("placement.anneals",))
        self.assertGreater(layers["placement.anneals"], 0)

    def test_warm_replay_repeats(self):
        layers = self.assert_repeats(
            "paper-warm", 1, ("cache.result_hits", "placement.anneals"))
        self.assertEqual(layers["placement.anneals"], 0)
        self.assertEqual(layers["cache.hit_ratio"], 1.0)

    def test_farm_duplicate_anneals_repeat(self):
        layers = self.assert_repeats(
            "farm", 1, ("serve.dup_anneal_ratio", "cache.result_hits",
                        "placement.anneals"))
        self.assertEqual(layers["serve.requests"], 108)


if __name__ == "__main__":
    unittest.main()
