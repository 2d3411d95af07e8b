#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 tempobench/test_tempobench.py

Proves that each declared metric is printed with its unit, that the checks
pass on the recorded seed and on an unrecorded one, that a corrupted
digest makes the run fail with error_rate > 0, and that the benchmark
refuses to run without the tempo sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Loss and failure counters: 0 is their healthy value on every workload.
MAY_BE_ZERO = {
    "trace.records_dropped", "net.timeouts", "timer.service_lock_contended",
    "net.stale_fire_ratio", "fleet.decode_errors", "fleet.sequence_gaps",
    "live.window_evictions", "live.classifier_evictions", "trace.relay_dropped",
    "bench.tracing_overhead_frac",
}


def run(workload, trace=0, seed=2008, digests=None, cwd=ROOT, script=RUN):
    argv = [sys.executable, script, "--workload", workload, "--seed", str(seed),
            "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"]
    if digests is not None:
        argv += ["--digests", digests]
    done = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                             else None)


class TempobenchTest(unittest.TestCase):
    def check_result(self, code, result, declared):
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_plain_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload)
                self.check_result(code, result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_emit_every_per_layer_metric(self):
        nonzero = set()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, trace=1)
                self.check_result(code, result, SPEC["per_layer"])
                nonzero |= {n for n, m in result["metrics"].items() if m["value"] != 0}
                self.assertLessEqual(result["metrics"]["bench.unattributed_frac"]["value"], 0.10)
        # Every layer metric is measured somewhere; only loss counters may
        # stay at their healthy 0 on all workloads.
        missing = {m["name"] for m in SPEC["per_layer"]} - nonzero - MAY_BE_ZERO
        self.assertEqual(missing, set())

    def test_unrecorded_seed_runs_structural_checks(self):
        code, result = run("c10m-churn", seed=7)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)

    def test_corrupted_digest_fails_the_run(self):
        with open(os.path.join(BENCH_DIR, "digests.json")) as f:
            digests = json.load(f)
        for workload, key in (("study-linux-webserver", "report"), ("c10m-churn", "fingerprint")):
            with self.subTest(workload=workload):
                corrupt = json.loads(json.dumps(digests))
                entry = corrupt["tiny"]["2008"][workload]
                entry[key] = "0" * 16 if entry[key] != "0" * 16 else "1" * 16
                path = os.path.join(OUT_DIR, "corrupt-digests.json")
                os.makedirs(OUT_DIR, exist_ok=True)
                with open(path, "w") as f:
                    json.dump(corrupt, f)
                code, result = run(workload, digests=path)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "tempobench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, result = run(WORKLOADS[0], cwd=bare,
                               script=os.path.join(bare, "tempobench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
