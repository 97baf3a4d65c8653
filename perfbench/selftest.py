"""Tests of the benchmark itself (stdlib unittest, about half a minute).

    python3 perfbench/selftest.py

They run the harness on copies of the checkout in a temporary directory, so
the golden digests can be corrupted without touching the real ones.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH_DIR, IMPORT_CLI, OUT_DIR, ROOT,  # noqa: E402
                    boundary_cycle, cold_universe, digest, key, load_golden,
                    load_nominal, pin_cpu, run_pinned, score, sweep_argv,
                    sweep_ops, sweep_universe)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_copy(args: list[str], corrupt=()) -> tuple[dict, dict]:
    """Run the harness in a copy of the checkout; corrupt the named digests.

    Returns the report line and the result line.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(BENCH_DIR, root / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        path = root / BENCH_DIR.name / "golden" / "digests.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        for k in corrupt:
            data["outputs"][k]["sha256"] = "0" * 64
        path.write_text(json.dumps(data), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(root / BENCH_DIR.name / "run.py"), *args],
            cwd=root, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report = json.loads(report_line)["report"]
    for name in report["metrics"]:
        assert NAME.fullmatch(name), name
    return report, json.loads(result_line)


class GeneratorTest(unittest.TestCase):
    def test_seed_fixes_argv(self):
        self.assertEqual(boundary_cycle(7), boundary_cycle(7))
        self.assertEqual(list(islice(sweep_ops(7), 40)),
                         list(islice(sweep_ops(7), 40)))

    def test_seeds_differ(self):
        self.assertNotEqual(boundary_cycle(1), boundary_cycle(2))
        self.assertNotEqual(list(islice(sweep_ops(1), 40)),
                            list(islice(sweep_ops(2), 40)))

    def test_golden_covers_every_argv(self):
        golden = load_golden()
        universe = set(cold_universe()) | set(sweep_universe())
        self.assertTrue(set(islice(sweep_ops(3), 400)) <= universe)
        self.assertEqual({key(a) for a in universe}, set(golden))


class ScoreTest(unittest.TestCase):
    def test_empty_ledger_succeeds_only_on_exit_1_and_fail(self):
        argv = sweep_argv(None, "json", True)
        entry = load_golden()[key(argv)]
        self.assertEqual((entry["rc"], entry["status"]), (1, "fail"))
        failing = json.dumps({"status": "fail"})
        passing = json.dumps({"status": "pass"})
        for out in (failing, passing):
            golden = {key(argv): {"rc": 1, "status": "fail", "sha256": digest(out)}}
            self.assertEqual(score(golden, argv, 1, out) is None, out == failing)
            self.assertIsNotNone(score(golden, argv, 0, out))


class PairTest(unittest.TestCase):
    def test_nominal_covers_every_cold_op(self):
        self.assertEqual(set(load_nominal()),
                         {IMPORT_CLI} | {key(a) for a in cold_universe()})

    def test_pinned_jobs_report_exit_output_and_cpu(self):
        OUT_DIR.mkdir(exist_ok=True)
        jobs = [([sys.executable, "-c", f"print({i}); raise SystemExit({i})"],
                 dict(os.environ)) for i in (0, 3)]
        exits = run_pinned(jobs, pin_cpu())
        self.assertEqual([(e.rc, e.output) for e in exits], [(0, "0\n"), (3, "3\n")])
        for e in exits:
            self.assertGreater(e.cpu_s, 0)
            self.assertGreater(e.maxrss_kb, 0)


class HarnessTest(unittest.TestCase):
    def test_corrupted_digest_makes_error_rate_nonzero(self):
        corrupt = [key(a) for a in boundary_cycle(5)]
        report, result = run_copy(
            ["--workload", "boundary-cold", "--seed", "5", "--seconds", "0.1",
             "--trace", "0"], corrupt)
        self.assertGreater(report["metrics"]["error_rate"]["value"], 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC["end_to_end"]})

    def test_traced_run_reports_every_layer_metric(self):
        report, result = run_copy(
            ["--workload", "boundary-cold", "--seed", "5", "--seconds", "0.1",
             "--trace", "1"])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(report["counts_not_repeated"], [])
        for name in ("cli.main_s", "boundary.boundary_parametrix_s",
                     "scalars.fraction_new_calls"):
            self.assertGreater(result["metrics"][name]["value"], 0)

    def test_metric_names(self):
        for group in ("end_to_end", "per_layer"):
            for metric in SPEC[group]:
                self.assertIsNotNone(NAME.fullmatch(metric["name"]), metric)


if __name__ == "__main__":
    unittest.main()
