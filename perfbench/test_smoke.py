"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 -m pytest perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

Each workload runs untraced and traced with --size tiny: every metric must
appear with its unit, every check must pass, and the traced process must
produce outputs bit-identical to the untraced one. It also checks that
BENCHMARK.json lists what run.py prints, and that the benchmark fails
cleanly when the program is missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

OUT = os.path.join(HERE, "out", "smoke")
WORKLOAD_METRICS = {
    "train-toy": {"train_iter_s": "s/iteration"},
    "infer-overlap": {"infer_ms_per_frame": "ms/frame"},
    "infer-chain": {"infer_ms_per_frame": "ms/frame"},
    "eval-drift": {"eval_kitti_s": "s", "eval_tum_s": "s"},
}
COMMON = {"step_cal": "ratio", "step_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
          "error_rate": "ratio"}


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny", "--out", OUT],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


class SmokeTest(unittest.TestCase):

    def check_run(self, workload, trace):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {name: unit for name, unit, _ in wanted})
        printed = {}
        for line in lines:
            if line.startswith("metric "):
                _, name, value, unit = line.split(" ", 3)
                float(value)
                printed[name] = unit
        self.assertEqual(printed, dict(COMMON, **WORKLOAD_METRICS[workload]))
        with open(os.path.join(OUT, "%s-seed3-trace%d.json" % (workload, trace))) as fh:
            return json.load(fh)

    def test_workloads_untraced_and_traced_agree(self):
        for workload in WORKLOAD_METRICS:
            with self.subTest(workload=workload):
                untraced = self.check_run(workload, 0)
                traced = self.check_run(workload, 1)
                self.assertEqual(traced["fingerprints"], untraced["fingerprints"])
                self.assertEqual(traced["traced_fingerprints"], untraced["fingerprints"])
                self.assertIn("step_ms", traced["tracing_overhead"])

    def test_benchmark_json_matches_run(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         [m for m in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [m for m in run.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOAD_METRICS))

    def test_fails_without_the_program(self):
        bare = os.path.join(HERE, "out", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench("eval-drift", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
