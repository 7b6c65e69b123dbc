"""Self-tests of the benchmark (stdlib unittest, about a minute):

    python3 bench/selftest.py

They check the oracles, that the gate fails on a corrupted oracle value,
that every workload passes at a tiny size, that traced counts repeat
exactly at a fixed seed, that the printed metric names match
BENCHMARK.json, and that the benchmark refuses to run without the gtflow
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

COUNT_SUFFIXES = tuple(f".{s}" for s in spans.COUNT_STATS)


def bench(*args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class Oracles(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual([oracles.staircase_shsyt_count(n) for n in range(1, 7)], [1, 1, 2, 12, 286, 33592])
        self.assertEqual(oracles.weyl_dimension((9, 7, 4, 2, 0)), 143325)
        self.assertEqual(oracles.weyl_dimension((10, 8, 6, 4, 2, 0)), 14348907)
        self.assertEqual(oracles.gt_volume((5, 4, 3, 2, 1, 0)), 1)
        self.assertEqual(sum(oracles.VERIFY_FAMILY_COUNTS.values()), 1107)
        self.assertEqual(len(oracles.VERIFY_FAMILY_COUNTS), 27)


class Gate(unittest.TestCase):
    def test_corrupted_oracle_fails_the_gate(self):
        import worker
        import workloads

        steps = workloads.build("gt-ladder", 0, "tiny", BENCH / "out" / "tmp")
        clean = worker.execute(steps)
        self.assertEqual(clean["failed"], 0)
        real = oracles.weyl_dimension
        oracles.weyl_dimension = lambda lam: real(lam) + 1
        try:
            corrupted = worker.execute(steps)
        finally:
            oracles.weyl_dimension = real
        self.assertGreater(corrupted["failed"], 0)
        self.assertEqual(corrupted["attempted"], clean["attempted"])

    def test_raising_step_counts_its_checks_as_failed(self):
        import worker
        import workloads

        def boom():
            raise RuntimeError("broken layer")

        res = worker.execute([workloads.Step("boom", boom, 3)])
        self.assertEqual((res["attempted"], res["failed"]), (3, 3))


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_smoke_every_workload_tiny(self):
        e2e = {m["name"]: m["unit"] for m in self.declared["end_to_end"]}
        for w in self.declared["workloads"]:
            with self.subTest(workload=w["name"]):
                code, out = bench("--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", "0", "--scale", "tiny")
                self.assertEqual(code, 0, out)
                res = result_line(out)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, e2e)

    def test_traced_counts_repeat_at_fixed_seed(self):
        per_layer = {m["name"]: m["unit"] for m in self.declared["per_layer"]}
        for workload in ("gt-ladder", "subdivision-ladder"):
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, out = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--scale", "tiny")
                    self.assertEqual(code, 0, out)
                    runs.append(result_line(out)["metrics"])
                self.assertEqual({k: v["unit"] for k, v in runs[0].items()}, per_layer)
                counts = [{k: v["value"] for k, v in r.items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["flow.kostant.calls"] + counts[0]["subdivision.compound_reduce.calls"], 0)

    def test_refuses_to_run_without_gtflow(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify-all", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class Declared(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in declared["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
