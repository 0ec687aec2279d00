#!/usr/bin/env python3
"""Self-checks of the benchmark itself (not of the engine):

- a corrupted expected payload makes every workload fail verification;
- clean runs pass, and print exactly the declared metrics;
- alltoall_sim is deterministic: one seed gives identical inputs, virtual
  round time and engine counters; another seed changes the inputs.

Run from the repository root (builds the benchmark program on first use):

    python3 perfbench/test_perfbench.py
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def bench(workload, seed=1, trace=0, extra=()):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [entry["name"] for entry in json.load(f)[kind]]


class PerfbenchSelfTest(unittest.TestCase):
    def test_corrupted_expectation_fails_every_workload(self):
        for workload in declared("workloads"):
            with self.subTest(workload=workload):
                code, lines = bench(workload, extra=["--inject-corrupt"])
                self.assertEqual(code, 1)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_clean_run_passes_with_declared_metrics(self):
        code, lines = bench("pingpong_small")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), declared("end_to_end"))
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_traced_run_prints_every_layer_metric(self):
        code, lines = bench("bulk_layout", trace=1)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(list(result["metrics"]), declared("per_layer"))
        self.assertGreater(
            result["metrics"]["shm.goodput_vs_memcpy"]["value"], 0)

    def test_alltoall_sim_is_deterministic_per_seed(self):
        def determinism(seed):
            code, lines = bench("alltoall_sim", seed=seed)
            self.assertEqual(code, 0)
            found = [l for l in lines if l.startswith("determinism ")]
            self.assertEqual(len(found), 1)
            return json.loads(found[0][len("determinism "):])

        first, again, other = determinism(1), determinism(1), determinism(2)
        self.assertEqual(first, again)
        self.assertNotEqual(first["inputs"], other["inputs"])
        self.assertNotEqual(first["virtual_round_us"],
                            other["virtual_round_us"])


if __name__ == "__main__":
    unittest.main()
