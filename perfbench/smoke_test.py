"""Smoke test of the benchmark itself: every workload at a tiny length, and
deliberately corrupted outputs that must show up as failed ops.

    python3 perfbench/smoke_test.py          # or: python3 -m pytest perfbench/smoke_test.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from run import workloads  # noqa: E402
from nnmix import boundary, cli, em  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.5  # seconds


def _names(key):
    return {m["name"] for m in SPEC[key]}


class WorkloadsRun(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        self.assertEqual(set(run.WORKLOAD_NAMES), {w["name"] for w in SPEC["workloads"]})
        for name in run.WORKLOAD_NAMES:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    res = run.run_workload(name, 0, TINY, trace)
                    self.assertTrue(res["correct"], res["failures"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), _names(key))
                    for rec in res["metrics"].values():
                        self.assertTrue(math.isfinite(rec["value"]))
                    if trace:
                        self._check_spans(name, res)

    def _check_spans(self, name, res):
        lines = (run.ROOT / res["spans_file"]).read_text().splitlines()
        self.assertEqual(len(lines), res["spans"])
        spans = [json.loads(line) for line in lines]
        self.assertLessEqual({"name", "start", "end", "parent", "op"}, set(spans[-1]))
        names = {span["name"] for span in spans}
        if name == "verdicts":
            self.assertLessEqual({"families.uab_closed_form_mle",
                                  "rank3cert.nonneg_rank3_factorize"}, names)
        if name == "boundary_fraction":
            self.assertFalse(any(n.startswith("em.") for n in names))


def _flip_verdict(real):
    def corrupted(P, *args, **kwargs):
        dec = real(P, *args, **kwargs)
        return dataclasses.replace(dec, verdict="out" if dec else "in")
    return corrupted


def _flip_criticality(real):
    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, critical=not res.critical)
    return corrupted


def _always_outside(P):
    return boundary.BoundaryClassification(boundary.OUTSIDE, "not_member", 3)


class CorruptedOutputsFail(unittest.TestCase):
    def _assert_failed(self, name, seconds=TINY):
        res = run.run_workload(name, workloads.DEFAULT_SEED, seconds, False)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed_op_frac"], 0.0)

    def test_corrupted_membership_verdict(self):
        with mock.patch.object(cli, "nnrank3_membership",
                               _flip_verdict(cli.nnrank3_membership)):
            self._assert_failed("verdicts")

    def test_corrupted_boundary_status(self):
        with mock.patch.object(boundary, "boundary_test", _always_outside):
            self._assert_failed("boundary_fraction")

    def test_corrupted_fraction_against_reference(self):
        # flipping the criticality flag flips the trial's flagged_boundary, and
        # with it the fraction; only the default seed's reference can see that
        with mock.patch.object(em, "is_critical", _flip_criticality(em.is_critical)):
            self._assert_failed("planted_T10", seconds=1.0)


class BareDirectoryFails(unittest.TestCase):
    def test_no_result_without_the_package(self):
        bare = run.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for path in run.BENCH_DIR.glob("*.*"):
                if path.is_file():
                    shutil.copy(path, bare / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verdicts",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
