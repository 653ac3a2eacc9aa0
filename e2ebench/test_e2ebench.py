#!/usr/bin/env python3
"""Self-check of the e2ebench benchmark.

    python3 e2ebench/test_e2ebench.py

Runs every workload at its smoke size through run.py (building the
benchmark first if needed) and checks that:
  * the printed metric names and units match BENCHMARK.json, for both
    --trace 0 and --trace 1, on every workload;
  * every per-layer count repeats exactly across two same-seed runs;
  * a smoke run of each workload finishes in seconds;
  * the correctness check fails runs that abort, hit config errors or
    produce a fingerprint other than the reference, and every pinned
    seed has a reference.
"""

import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the module under test)

SMOKE_SECONDS = 1
# A smoke run measures for SMOKE_SECONDS plus at most a few passes of
# well under a second each.
SMOKE_LIMIT_S = 30


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def smoke(workload, trace, seed=3):
    """Run one smoke run; returns (result dict, seconds taken)."""
    t0 = time.monotonic()
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SMOKE_SECONDS),
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=True)
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]), time.monotonic() - t0


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        cls.bench = load_benchmark()

    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_benchmark_workloads_are_the_workloads(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, run.WORKLOADS)

    def test_end_to_end_metrics_match_benchmark_json(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result, took = smoke(w, 0)
                self.check_metrics(result, self.bench["end_to_end"])
                self.assertLess(took, SMOKE_LIMIT_S)
                for m in self.bench["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0.0, m["name"])

    def test_per_layer_metrics_match_and_counts_repeat(self):
        counts = list(run.COUNT_UNITS) + \
            ["net.region_flows_avg", "net.fast_finish_ratio"]
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                first, took = smoke(w, 1)
                self.check_metrics(first, self.bench["per_layer"])
                self.assertLess(took, SMOKE_LIMIT_S)
                again, _ = smoke(w, 1)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)


def experiment(pass_no, name, hash_="0x1", counts=None, status="ok"):
    return {"type": "experiment", "pass": pass_no, "traced": 0,
            "name": name, "status": status, "hash": hash_,
            "counts": counts or {"sim.events": 5}}


# A seed without reference fingerprints: only the replay is checked.
UNPINNED = 1000


class CorrectnessCheck(unittest.TestCase):
    def test_clean_replay_passes(self):
        recs = [experiment(0, "a"), experiment(1, "a")]
        self.assertEqual(run.check("w", UNPINNED, False, recs, 0, ""),
                         (2, 0, []))

    def test_replay_mismatch_fails(self):
        recs = [experiment(0, "a"), experiment(1, "a", hash_="0x2")]
        attempted, failed, _ = run.check("w", UNPINNED, False, recs, 0, "")
        self.assertEqual((attempted, failed), (2, 1))
        recs = [experiment(0, "a"),
                experiment(1, "a", counts={"sim.events": 6})]
        self.assertEqual(run.check("w", UNPINNED, False, recs, 0, "")[1], 1)

    def test_config_error_fails(self):
        recs = [experiment(0, "a", status="config_error")]
        self.assertEqual(
            run.check("w", UNPINNED, False, recs, 0, "")[:2], (1, 1))

    def test_abort_fails(self):
        recs = [experiment(0, "a"),
                {"type": "start", "pass": 1, "name": "a"}]
        attempted, failed, msgs = run.check("w", UNPINNED, False, recs, -6,
                                            "panic: boom")
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("aborted", msgs[0])

    def test_every_pinned_seed_has_a_reference(self):
        for w in run.WORKLOADS:
            for seed in run.REFERENCE_SEEDS:
                self.assertTrue(run.reference_for(w, seed), (w, seed))

    def test_reference_mismatch_fails_at_pinned_seeds(self):
        for seed in (run.DEFAULT_SEED, 17):
            ref = run.reference_for("faults_fattree8", seed)
            name, good = next(iter(ref.items()))
            ok = [experiment(0, name, hash_=good)]
            self.assertEqual(
                run.check("faults_fattree8", seed, False, ok, 0, "")[1], 0)
            bad = [experiment(0, name, hash_="0xdead")]
            self.assertEqual(
                run.check("faults_fattree8", seed, False, bad, 0, "")[1], 1)


if __name__ == "__main__":
    unittest.main()
