"""Tests for the benchmark harness and perfbench/run.py.

Run from the repository root (builds the harness first, ~1 min cold; the
end-to-end tests then run every workload briefly, ~1 min):

  python3 -m unittest discover -s perfbench/tests -v
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)


def run_benchmark(workload, trace, seed=1):
    """One shortest-possible run of perfbench/run.py; returns (stdout lines,
    the parsed last line)."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                       timeout=180)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.splitlines()
    return lines, json.loads(lines[-1])


class SelfTimeTest(unittest.TestCase):
    # [id, parent, name, start, end, busy, count]
    SPANS = [
        [1, 0, "workload", 0, 1000, 1000, 1],
        [2, 1, "cell", 100, 900, 800, 1],
        [3, 2, "init", 100, 200, 100, 1],
        [4, 2, "build", 200, 250, 50, 1],
        [5, 2, "run.batch", 250, 650, 400, 1],
        [6, 5, "stop", 260, 640, 150, 1000],  # merged: 1000 checks, 150 ns
        [7, 2, "run.array", 650, 800, 150, 1],
        [8, 2, "verify", 800, 860, 60, 1],
        [9, 2, "report", 860, 870, 10, 1],
        [10, 1, "leg.sharded_1w", 900, 1000, 100, 1],
        [11, 10, "run.sharded", 910, 990, 80, 1],
    ]

    def test_self_time_subtracts_children(self):
        self_time = run.self_times(self.SPANS)
        self.assertEqual(self_time[1], 1000 - 800 - 100)
        self.assertEqual(self_time[2], 800 - (100 + 50 + 400 + 150 + 60 + 10))
        self.assertEqual(self_time[5], 400 - 150)  # merged child's busy time
        self.assertEqual(self_time[6], 150)
        self.assertEqual(self_time[10], 100 - 80)

    def test_layer_seconds_per_cell(self):
        [cell] = run.cell_layer_seconds(self.SPANS)
        ns = {k: round(v * 1e9) for k, v in cell.items()}
        self.assertEqual(ns, {"init": 100, "build": 50,
                              "run.batch": 250, "run.array": 150,
                              "run.sharded": 0, "run.ring": 0,
                              "stop": 150, "verify": 60, "report": 10,
                              "uncovered": 30})
        # Every nanosecond of the cell is attributed exactly once.
        self.assertEqual(sum(ns.values()), 800)

    def test_clock_reads_are_taken_off_per_timed_check(self):
        [cell] = run.cell_layer_seconds(self.SPANS, clock_ns=0.1)
        ns = {k: round(v * 1e9) for k, v in cell.items()}
        # 1000 checks timed one by one, 0.1 ns of clock read each.
        self.assertEqual(ns["stop"], 150 - 100)
        self.assertEqual(ns["run.batch"], 250 - 100)  # the checks' chunk
        self.assertEqual(ns["run.array"], 150)
        self.assertEqual(ns["init"], 100)


class FastQuartileTest(unittest.TestCase):
    def test_first_quartile_of_the_cells(self):
        self.assertEqual(run.fast_quartile([5.0, 1.0, 4.0, 2.0, 3.0]), 2.0)
        self.assertEqual(run.fast_quartile([1.0, 3.0]), 1.5)

    def test_one_cell_and_no_cell(self):
        self.assertEqual(run.fast_quartile([1.25]), 1.25)
        self.assertEqual(run.fast_quartile([]), 0.0)


class NamesTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        bench = run.load_benchmark()
        listed = subprocess.run([str(run.build()), "--list"],
                                capture_output=True, text=True,
                                check=True).stdout.split()
        for w in bench["workloads"]:
            self.assertIn(w["name"], listed)

    def test_printed_metrics_match_benchmark_json(self):
        bench = run.load_benchmark()
        for w in bench["workloads"]:
            for trace, declared in ((0, bench["end_to_end"]),
                                    (1, bench["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    _, result = run_benchmark(w["name"], trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {d["name"]: d["unit"] for d in declared})
                    if trace == 0:
                        self.assertEqual(
                            result["metrics"]["passed_share"]["value"], 1.0)


class FingerprintTest(unittest.TestCase):
    def test_perturbed_fingerprint_fails_the_run(self):
        with open(run.EXPECTED) as f:
            expected = json.load(f)
        interactions, metric, digest = \
            expected["fingerprints"]["ring-active"].split(",")
        flipped = format(int(digest, 16) ^ 1, "016x")
        expected["fingerprints"]["ring-active"] = \
            ",".join([interactions, metric, flipped])
        scratch = run.ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            path = Path(tmp) / "expected.json"
            path.write_text(json.dumps(expected))
            args = argparse.Namespace(workload="ring-active",
                                      seed=expected["seed"], seconds=0,
                                      trace=0)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                run.run_once(args, run.load_benchmark(), expected=path)
        lines = stdout.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["passed_share"]["value"], 1.0)
        self.assertTrue(any(line.startswith("FAILED") for line in lines))

    def test_other_seed_checks_invariants_only(self):
        _, result = run_benchmark("ring-active", 0, seed=7)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["passed_share"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
