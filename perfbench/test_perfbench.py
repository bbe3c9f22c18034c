#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds through run.py, then checks that
  * every metric BENCHMARK.json declares is printed, with its unit;
  * two traced runs with one seed repeat every exact count bit for bit;
  * a second seed changes the generated inputs and every check still passes;
  * without the sources next to it the benchmark fails without a result.
Each run is short (2 s), so timings here are not measurements.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Exact counts: deterministic for a fixed seed on any host.
EXACT = [
    "core.node_evals", "core.phases", "core.triggered_events",
    "core.memo_probes", "core.memo_hits", "core.final_records",
    "core.max_alive", "switch.good_evals", "checkpoint.spill_chunks",
    "checkpoint.good_evals", "checkpoint.resident_bytes",
    "checkpoint.max_chunk_bytes", "store.hits", "store.recordings",
    "sched.batches", "patterns.count", "seu.injections", "seu.instants",
    "seu.detected", "seu.silent", "seu.latent", "serve.samples.lo",
    "serve.samples.mid", "serve.samples.hi", "serve.rejected",
]
# On serve_open a request that lands on a pooled engine which last ran the
# same sequence reuses that engine's checkpoint without asking the store, so
# store.hits depends on which engine was free; store.recordings does not.
TIMING_DEPENDENT = {"serve_open": {"store.hits"}}

_cache = {}


def run(workload, seed, trace, cwd=ROOT, script=None):
    key = (workload, seed, trace, str(cwd))
    if key in _cache:
        return _cache[key]
    script = script or ROOT / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    inputs = next((l.split()[1] for l in lines if l.startswith("inputs ")),
                  None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    _cache[key] = (proc.returncode, result, inputs, proc.stdout)
    return _cache[key]


class PerfbenchTest(unittest.TestCase):

    def test_metrics_match_declaration(self):
        for workload in WORKLOADS:
            for trace, decl in ((0, "end_to_end"), (1, "per_layer")):
                code, result, _, out = run(workload, 1, trace)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in BENCH[decl]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, f"{workload} trace={trace}")
                if trace == 0:
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, f"{workload} {name}")

    def test_exact_counts_repeat(self):
        for workload in WORKLOADS:
            first = run(workload, 1, 1)[1]["metrics"]
            _cache.pop((workload, 1, 1, str(ROOT)))
            second = run(workload, 1, 1)[1]["metrics"]
            for name in EXACT:
                if name in TIMING_DEPENDENT.get(workload, ()):
                    continue
                self.assertEqual(first[name]["value"], second[name]["value"],
                                 f"{workload} {name}")

    def test_second_seed_changes_inputs(self):
        for workload in WORKLOADS:
            code1, r1, in1, _ = run(workload, 1, 0)
            code2, r2, in2, out = run(workload, 2, 0)
            self.assertEqual(code2, 0, out)
            self.assertTrue(r2["correct"], out)
            self.assertIsNotNone(in1)
            self.assertNotEqual(in1, in2, workload)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _, _ = run(WORKLOADS[0], 1, 0, cwd=tmp,
                                     script=Path(tmp) / "perfbench" / "run.py")
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
