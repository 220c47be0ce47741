#!/usr/bin/env python3
"""Tests of the benchmark itself, on the smoke inputs (under a minute).

    python3 qecbench/test_run.py

Checks that every run prints exactly the metrics BENCHMARK.json declares,
with their units; that the oracle counts a planted wrong answer and a
planted corrupted certificate as failed; the trace self-time arithmetic;
and that the benchmark refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    """Runs the benchmark; returns (exit code, parsed last stdout line)."""
    p = subprocess.run([sys.executable, str(script), "--seconds", "1", *args],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, None


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, result, declared):
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_end_to_end_and_traced(self):
        for w in SPEC["workloads"]:
            for trace, declared in (("0", SPEC["end_to_end"]),
                                    ("1", SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    rc, res = bench("--workload", w["name"], "--smoke",
                                    "--trace", trace, "--seed", "3")
                    self.assertEqual(rc, 0)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.check_metrics(res, declared)
                    if trace == "0":
                        self.assertGreater(res["metrics"]["verdict_s"]["value"],
                                           0)
                        continue
                    m = {k: v["value"] for k, v in res["metrics"].items()}
                    self.assertGreater(m["sat.conflicts"], 0)
                    if w["name"] != "s9_loopback2":
                        self.assertEqual(m["fingerprint.match"], 1.0)
                    if w["name"] == "s9_proof":
                        self.assertEqual(m["proof.standalone_ok"], 1.0)
                        self.assertGreater(m["proof.log_base_s"], 0)
                    if w["name"] == "s9_loopback2":
                        self.assertGreater(m["dist.problem_frame_bytes"], 0)
                        self.assertGreater(m["engine.cube_p50_us"], 0)
                    if w["name"] == "t1f_distance":
                        self.assertGreater(m["sat.reduce_db_s"], 0)
                        self.assertEqual(m["engine.cubes"], 0)

    def test_planted_wrong_answer_counts_as_failed(self):
        rc, res = bench("--workload", "t1f_distance", "--smoke",
                        "--plant", "wrong-answer")
        self.assertEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)

    def test_planted_bad_certificate_counts_as_failed(self):
        rc, res = bench("--workload", "s9_proof", "--smoke", "--trace", "1",
                        "--plant", "bad-cert")
        self.assertEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertEqual(res["metrics"]["proof.standalone_ok"]["value"], 0.0)

    def test_refuses_to_run_without_sources(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "qecbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env_dir = os.environ.pop("CARGO_TARGET_DIR", None)
        try:
            rc, res = bench("--workload", "s9_verify", cwd=bare,
                            script=bare / "qecbench" / "run.py")
        finally:
            if env_dir is not None:
                os.environ["CARGO_TARGET_DIR"] = env_dir
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(res)


class SpanSelfTimes(unittest.TestCase):
    def test_nested_and_tied_spans(self):
        # Spans are recorded when they close: a child precedes the parent
        # that starts and ends with it.
        events = [
            {"name": "child", "ts": 0, "dur": 10, "tid": 1},
            {"name": "parent", "ts": 0, "dur": 10, "tid": 1},
            {"name": "grandchild", "ts": 2, "dur": 3, "tid": 1},
            {"name": "later", "ts": 20, "dur": 5, "tid": 1},
            {"name": "other_thread", "ts": 1, "dur": 4, "tid": 2},
        ]
        selfs = {e["name"]: s for e, s in run.span_self_times(events)}
        self.assertEqual(selfs, {"parent": 0, "child": 7, "grandchild": 3,
                                 "later": 5, "other_thread": 4})


if __name__ == "__main__":
    unittest.main(verbosity=2)
