#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark (as perfbench/run.py does), then runs short
repetitions of the fastest workload and checks that the seed is the only
input: two runs with one seed report identical simulated and count metrics,
another seed changes them, and every metric BENCHMARK.json names is
printed with its unit. Takes under a minute.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD = "keepalive_small"
SECONDS = "0.2"

# Metrics measured in host time; everything else is simulated or counted
# and must repeat exactly for a seed.
HOST_UNITS = {"frames/host-s", "s", "MiB", "ns", "ns/KiB", "ns/pkt", "GB/s"}
HOST_NAMES = {"obs.trace_overhead_ratio"}


def bench(seed, trace):
    proc = subprocess.run(
        [str(run.BINARY), "--workload", WORKLOAD, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace),
         "--out-dir", str(run.TRACE_DIR)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
        check=False)
    result = json.loads(proc.stdout.splitlines()[-1])
    return proc.returncode, result, proc.stdout


def deterministic(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in HOST_UNITS and name not in HOST_NAMES}


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        run.TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cls.runs = {(seed, trace): bench(seed, trace)
                    for seed in (1, 2) for trace in (0, 1)}
        cls.repeat = {trace: bench(1, trace) for trace in (0, 1)}

    def test_runs_pass_their_output_checks(self):
        for key, (code, result, out) in self.runs.items():
            with self.subTest(run=key):
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            metrics = self.runs[(1, trace)][1]["metrics"]
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            self.assertEqual(set(metrics), set(want))
            for name, unit in want.items():
                self.assertEqual(metrics[name]["unit"], unit, name)
                self.assertIsInstance(metrics[name]["value"], (int, float))

    def test_same_seed_repeats_exactly(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                first = deterministic(self.runs[(1, trace)][1]["metrics"])
                again = deterministic(self.repeat[trace][1]["metrics"])
                self.assertTrue(first)
                self.assertEqual(first, again)

    def test_other_seed_changes_the_inputs(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                one = deterministic(self.runs[(1, trace)][1]["metrics"])
                two = deterministic(self.runs[(2, trace)][1]["metrics"])
                sim = [n for n in one if n.startswith("sim_") or trace == 1]
                self.assertTrue(any(one[n] != two[n] for n in sim))

    def test_bad_arguments_are_refused(self):
        proc = subprocess.run(
            [str(run.BINARY), "--workload", "no_such_workload", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
