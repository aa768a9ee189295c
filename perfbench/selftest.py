"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

They are kept out of the package's pytest suite on purpose: they take
one to two minutes and test the benchmark, not the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import homlie  # noqa: E402
import reference as ref  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _short_run(name, trace=False):
    """One round of a workload with the gate on; returns the JSON object."""
    cls = WORKLOADS[name]
    record = run.run_workload(cls, seed=7, seconds=0, trace=trace, min_ops=1, setups=1)
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(record, trace)


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_its_gate(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        names = {m["name"] for m in SPEC["end_to_end"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out = _short_run(name)
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(set(out["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_traced_run_reports_every_layer_metric(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out = _short_run(name, trace=True)
                self.assertTrue(out["correct"])
                self.assertEqual(set(out["metrics"]), names)
        # the traced workload's own entry point is wrapped and called once per op
        out = _short_run("transport_qq", trace=True)["metrics"]
        self.assertEqual(out["lab.invariance_battery.calls"]["value"], 1.0)
        self.assertEqual(out["algebra.LinearMap.inverse.per_transport"]["value"], 2.0)

    def test_tracer_leaves_the_package_as_it_found_it(self):
        before = {name: tracing._resolve(name)[2] for name in tracing.LAYERS}
        t = tracing.Tracer()
        t.install()
        self.assertIs(homlie.lab.matrix_rank, homlie.system.rank)
        self.assertTrue(hasattr(homlie.lab.matrix_rank, "__wrapped__"))
        t.remove()
        after = {name: tracing._resolve(name)[2] for name in tracing.LAYERS}
        self.assertEqual(before, after)
        self.assertIs(homlie.lab.matrix_rank, homlie.system.rank)


class SpeedClockTest(unittest.TestCase):
    def test_scaled_time_divides_out_the_machine_speed(self):
        """At half the reference speed, a call's scaled time is half its wall time."""
        calibration = speed._calibration_s
        speed._calibration_s = lambda: 2 * speed.CAL_REF_S
        try:
            result, wall, scaled = speed.SpeedClock().call(time.sleep, 0.01)
        finally:
            speed._calibration_s = calibration
        self.assertIsNone(result)
        self.assertGreaterEqual(wall, 0.01)
        self.assertAlmostEqual(scaled, wall / 2)

    def test_exception_is_returned_not_raised(self):
        result, wall, scaled = speed.SpeedClock().call(int, "not a number")
        self.assertIsInstance(result, ValueError)
        self.assertGreater(scaled, 0)


class GateTest(unittest.TestCase):
    """A wrong answer injected from the benchmark side must count as failed."""

    def _faulty(self, name, layer, make_wrapper):
        undo = tracing.patch(layer, make_wrapper)
        try:
            return _short_run(name)
        finally:
            tracing.unpatch(undo)

    def test_wrong_rank_fails_decide_qq_sample(self):
        out = self._faulty("decide_qq", "system.rank", lambda fn: lambda M: fn(M) - 1)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)

    def test_dropped_kernel_vector_fails_decide_qq(self):
        def drop_last(fn):
            def wrong(M):
                basis = fn(M)
                basis.maps = basis.maps[:-1]
                return basis
            return wrong
        out = self._faulty("decide_qq", "system.kernel_basis", drop_last)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)

    def test_wrong_determinant_fails_decide_qq(self):
        out = self._faulty("decide_qq", "system.determinant", lambda fn: lambda M: fn(M) + 1)
        self.assertGreater(out["failed"], 0)

    def test_wrong_membership_fails_transport_qq(self):
        def never(fn):
            return lambda A, f, matrix=None: False
        out = self._faulty("transport_qq", "system.is_in_kernel", never)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)

    def test_dropped_kernel_vector_fails_transport_qq(self):
        """A kernel that is wrong the same way on both sides passes the battery."""
        def drop_last(fn):
            def wrong(M):
                basis = fn(M)
                basis.maps = basis.maps[:-1]
                return basis
            return wrong
        out = self._faulty("transport_qq", "system.kernel_basis", drop_last)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)

    def test_reference_matches_package_on_seeded_algebras(self):
        fp = homlie.PrimeField(10007)
        for n in (3, 4, 5, 6):
            key = ref.split(99, n)
            A = homlie.random_algebra(n, fp, key)
            M = homlie.build_matrix(A)
            self.assertEqual(ref.hom_jacobi_rows(n, ref.random_constants_mod_p(n, 10007, key),
                                                 10007), M.rows)
            self.assertEqual(ref.rank_mod_p(M.rows, 10007), homlie.rank(M))


class ContractTest(unittest.TestCase):
    def test_fails_without_the_package_source(self):
        """In a tree holding only BENCHMARK.json and the benchmark: exit != 0, no result."""
        run.OUT.mkdir(exist_ok=True)
        bare = pathlib.Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(run.ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "decide_qq", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
