#!/usr/bin/env python3
"""Smoke tests of the repository benchmark at tiny sizes.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py end to end from the repository root
(building into $CARGO_TARGET_DIR or .bench_build on first use) with
--scale tiny, so the whole file runs in about two minutes once built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
if not os.path.isabs(BUILD_DIR):
    BUILD_DIR = os.path.join(ROOT, BUILD_DIR)

FIT = ["data.generate_s", "text.embed_s", "core.scn_s", "core.gcn_s",
       "core.scn_relations", "core.gcn_candidate_pairs", "em.iterations",
       "io.snapshot_save_s", "io.snapshot_load_s", "graph.bytes_per_author",
       "graph.alive_vertices", "graph.edges",
       # Every traced run records spans while it is timed.
       "obs.bench_trace_overhead_pct"]
ORACLE = ["incremental.papers_per_s", "incremental.add_paper_us_p50",
          "incremental.refresh_call_ms_p50"]
# Per-layer metrics each workload's own layers must move off zero, and
# some its idle layers must leave at zero (the map in README.md).
MEASURED = {
    "batch_fit": FIT + ["io.snapshot_bytes"],
    "stream_catchup": FIT + ORACLE + [
        "io.snapshot_bytes", "shard.refresh_share", "shard.scatter_share",
        "shard.apply_share", "shard.publish_share",
        "shard.enqueue_wait_us_p50", "shard.refreshes", "shard.windows",
        "shard.occupancy", "shard.bylines_scored_skew",
        "serve.commit_latency_us_p99", "serve.apply_us_p99"],
    "serve_mixed": FIT + ORACLE + [
        "serve.commit_latency_us_p99", "serve.apply_us_p99",
        "serve.publish_us_p50", "api.decode_us_p50", "api.encode_us_p50",
        "api.request_us_p50.query_authors", "api.request_us_p99.ingest",
        "wal.fsyncs", "wal.bytes_per_paper", "loadgen.commit_p50_ms",
        "loadgen.query_p50_us", "loadgen.query_p99_us"],
}
IDLE = {
    "batch_fit": ["incremental.papers_per_s", "shard.windows",
                  "serve.apply_us_p99", "api.decode_us_p50", "wal.fsyncs",
                  "loadgen.commit_p50_ms"],
    "stream_catchup": ["api.decode_us_p50", "wal.fsyncs",
                       "loadgen.commit_p50_ms"],
    "serve_mixed": [],
}


def run(workload, trace=0, seed=3, corrupt=0, cwd=ROOT, env=None):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "3",
               "--trace", str(trace), "--scale", "tiny",
               "--corrupt-oracle", str(corrupt)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900, env=env)


class PerfbenchSmoke(unittest.TestCase):
    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def assert_metrics(self, result, spec):
        units = {m["name"]: m["unit"] for m in spec}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], units[name], name)

    def test_every_end_to_end_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.result(run(workload))
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["success_rate"]["value"], 1)
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.result(run(workload, trace=1))
                self.assert_metrics(result, SPEC["per_layer"])
                metrics = result["metrics"]
                for name in MEASURED[workload]:
                    self.assertGreater(metrics[name]["value"], 0, name)
                for name in IDLE[workload]:
                    self.assertEqual(metrics[name]["value"], 0, name)
                trace = os.path.join(BUILD_DIR, "traces",
                                     f"trace-{workload}-seed3.json")
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                self.assertTrue(all(e["ph"] == "X" for e in events))

    def test_corrupted_oracle_digest_fails_operations(self):
        for workload in ("stream_catchup", "serve_mixed"):
            with self.subTest(workload=workload):
                result = self.result(run(workload, corrupt=1))
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["success_rate"]["value"], 1)

    def test_same_seed_gives_bit_identical_f1(self):
        first = self.result(run("stream_catchup", seed=5))
        second = self.result(run("stream_catchup", seed=5))
        self.assertEqual(first["metrics"]["pairwise_f1"]["value"],
                         second["metrics"]["pairwise_f1"]["value"])

    def test_refuses_to_run_without_the_program_sources(self):
        # A checkout holding only BENCHMARK.json and perfbench/ must fail
        # without printing a result.
        bare = os.path.join(BUILD_DIR, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = run("batch_fit", cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
