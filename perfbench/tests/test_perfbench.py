#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They build sstbench (as perfbench/run.py does) and check that generated
inputs are deterministic, that every metric of BENCHMARK.json is printed with
its unit on every workload, that the traced run reproduces the documented
diagnosis, and that a corrupted reference is reported as a failure.  About
two minutes on a 4-core host.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "perfbench"))
import run  # noqa: E402
import selftime  # noqa: E402

BENCH = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
SSTBENCH = SSTSIM = None
WORK_DIR = os.path.join(run.WORK_DIR, "selftest")


def setUpModule():
    global SSTBENCH, SSTSIM
    os.chdir(REPO)
    SSTBENCH, SSTSIM = run.build()
    os.makedirs(WORK_DIR, exist_ok=True)


def sstbench(*args):
    """Runs sstbench; returns (exit code, stdout lines, result object)."""
    p = subprocess.run([SSTBENCH, "--sstsim", SSTSIM, "--work-dir", WORK_DIR,
                        *args], capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return p.returncode, lines, result


class GeneratorDeterminism(unittest.TestCase):
    def emit(self, workload, seed):
        out = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            code, _, _ = sstbench("--workload", workload, "--seed", str(seed),
                                  "--emit", out)
            self.assertEqual(code, 0)
            files = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as f:
                    files[name] = f.read()
            return files
        finally:
            shutil.rmtree(out)

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = self.emit(w, run.DEFAULT_SEED)
                self.assertTrue(a)
                self.assertEqual(a, self.emit(w, run.DEFAULT_SEED))
                self.assertNotEqual(a, self.emit(w, run.HELD_OUT_SEED))
                for text in a.values():
                    json.loads(text)  # generated inputs are plain JSON


class MetricsPrinted(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in run.WORKLOADS:
            for trace in (0, 1):
                cls.results[w, trace] = sstbench(
                    "--workload", w, "--seed", str(run.DEFAULT_SEED),
                    "--seconds", "0.1", "--trace", str(trace))

    def test_every_metric_with_its_unit(self):
        for (w, trace), (code, lines, result) in self.results.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                defs = BENCH["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(result["metrics"]),
                                 [d["name"] for d in defs])
                for d in defs:
                    m = result["metrics"][d["name"]]
                    self.assertEqual(m["unit"], d["unit"])
                    self.assertIn(f"{d['name']} ", "\n".join(lines))
                if not trace:
                    for d in defs:
                        self.assertGreater(result["metrics"][d["name"]]
                                           ["value"], 0, d["name"])

    def test_traced_run_shows_the_barrier_diagnosis(self):
        def layer(w):
            return {k: v["value"] for k, v in
                    self.results[w, 1][2]["metrics"].items()}
        node, hot = layer("node_ranks2"), layer("hotspot_ranks4")
        self.assertLess(node["core.events_per_window"], 10)
        self.assertGreater(node["core.barrier_wait_share"], 0.5)
        self.assertGreaterEqual(hot["core.events_per_window"], 100)
        self.assertLess(hot["core.barrier_wait_share"],
                        node["core.barrier_wait_share"])
        self.assertGreater(hot["ckpt.checkpoints"], 0)
        self.assertGreater(hot["ckpt.restore_s"], 0)
        self.assertGreater(layer("node_serial")["vm.pte_reads"], 0)
        self.assertGreater(layer("sweep_local")["dse.run_points_s"], 0)

    def test_simulated_statistics_repeat_exactly(self):
        code, _, again = sstbench("--workload", "node_serial", "--seed",
                                  str(run.DEFAULT_SEED), "--seconds", "0.1",
                                  "--trace", "1")
        self.assertEqual(code, 0)
        first = self.results["node_serial", 1][2]["metrics"]
        for name, m in first.items():
            if name.split(".")[0] in ("proc", "mem", "vm") and \
                    name != "proc.sim_kips":
                self.assertEqual(m["value"], again["metrics"][name]["value"],
                                 name)

    def test_span_dump_reads_back(self):
        path = os.path.join(WORK_DIR, f"spans-hotspot_ranks4-seed"
                            f"{run.DEFAULT_SEED}.json")
        with open(path) as f:
            spans = json.load(f)["spans"]
        names = {s["name"] for s in spans}
        self.assertTrue({"rep", "sdl.parse", "sdl.build", "core.run",
                         "ckpt.load", "ckpt.restore"} <= names)
        selfs = selftime.self_times(spans)
        for s in spans:
            self.assertGreaterEqual(selfs[s["id"]], 0)
            self.assertLessEqual(selfs[s["id"]], s["end"] - s["start"])


class CorruptReference(unittest.TestCase):
    def test_reported_as_failure(self):
        for w in ("node_ranks2", "sweep_local"):
            with self.subTest(workload=w):
                code, _, result = sstbench(
                    "--workload", w, "--seed", str(run.DEFAULT_SEED),
                    "--seconds", "0.1", "--trace", "0", "--corrupt-reference")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(REPO, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(BENCH["command"] + [
                "--workload", "node_serial", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
