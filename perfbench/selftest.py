#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny input size.

    python3 perfbench/selftest.py

Checks that each workload completes and passes its output checks, that the
checks reject deliberately corrupted outputs, that the traced run counts
what it should and degrades when a wrapped name is missing, and that
``BENCHMARK.json`` names the metrics the runner prints.  Takes a few
seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import unittest
from pathlib import Path

import numpy as np

import checks
import run
import spans

FLEXLS = run.import_flexls()
TINY = {"n_streams": 12, "steps": 120}


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    warmup = 30 if workload.command else 0
    return dataclasses.replace(workload, warmup=warmup, **TINY)


class SessionCase(unittest.TestCase):
    def setUp(self) -> None:
        run.RESULTS.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=run.RESULTS, prefix="selftest-"))

    def tearDown(self) -> None:
        shutil.rmtree(self.work)

    def session(self, name: str, reference=None) -> run.Session:
        session = run.Session(FLEXLS, tiny(name), 7, self.work, reference)
        session.prepare()
        return session

    def run_ok(self, session: run.Session, **kwargs) -> run.RunResult:
        result = session.attempt(**kwargs)
        self.assertIsNotNone(result, session.failures)
        return result


class TestWorkloads(SessionCase):
    def test_each_workload_completes_twice_identically(self):
        for name in run.WORKLOADS:
            with self.subTest(name):
                session = self.session(name)
                for _ in range(2):
                    self.assertGreater(self.run_ok(session).wall_s, 0.0)
                self.assertEqual(session.failures, [])

    def test_memory_run_reports_a_peak(self):
        session = self.session("smooth-wide")
        self.assertGreater(self.run_ok(session, memory=True).peak_bytes, 0)


class TestCorruptionRejected(SessionCase):
    def test_changed_sharpe_value(self):
        session = self.session("sweep-svd")
        self.run_ok(session)
        path = session.out_dir / "sweep_sharpe.csv"
        header, rows = checks.read_table(path)
        reference = {"sweep_sharpe.csv": {"header": header, "rows": [r[:] for r in rows]}}
        checks.check_sweep(session.out_dir, session.workload.deltas, reference)

        rows[1][1] = repr(float(rows[1][1]) * (1.0 + 1e-4))
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        with self.assertRaises(checks.CheckError):
            checks.check_sweep(session.out_dir, session.workload.deltas, reference)
        with self.assertRaises(checks.CheckError):
            session.check(session.out_dir)      # differs from the first run

    def test_ledger_identity_broken(self):
        session = self.session("backtest-raw")
        self.run_ok(session)
        delta = session.workload.deltas[0]
        path = session.out_dir / f"ledger_{delta!r}.csv"
        checks.check_ledger(path, run.MULTIPLIER)
        header, rows = checks.read_table(path)
        col = header.index("pnl")
        row = next(r for r in rows[1:] if float(r[col]) != 0.0)
        row[col] = repr(float(row[col]) * 1.001)
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        with self.assertRaises(checks.CheckError):
            checks.check_ledger(path, run.MULTIPLIER)

    def test_shifted_smoothed_row(self):
        session = self.session("smooth-wide")
        delta = session.workload.deltas[0]
        mu = (1.0 - delta) / delta
        path = FLEXLS.estimator.fls_smooth_batch(
            session.features, session.target, FLEXLS.estimator.Smoothing(delta)
        )
        checks.check_smooth(session.features, session.target, mu, path)
        shifted = path.copy()
        k = len(path) // 2
        shifted[k] = path[k + 1]
        with self.assertRaises(checks.CheckError):
            checks.check_smooth(session.features, session.target, mu, shifted)


class TestTrace(SessionCase):
    def traced(self, session: run.Session, tracer: spans.Tracer) -> dict:
        tracer.install()
        try:
            result = self.run_ok(session, tracer=tracer)
        finally:
            tracer.uninstall()
        return tracer.layer_metrics(0, session.workload.rows, result.bytes_written)

    def test_counts(self):
        rows = TINY["steps"] - 1
        want = {
            "sweep-svd": {"eigentrack.updates_per_row": 4.0, "estimator.kf_updates": None},
            "backtest-raw": {"eigentrack.updates_per_row": 0.0, "estimator.kf_updates": 2 * rows},
            "smooth-wide": {"eigentrack.updates_per_row": 0.0, "estimator.kf_updates": 0},
        }
        for name, expected in want.items():
            with self.subTest(name):
                metrics = self.traced(self.session(name), spans.Tracer())
                self.assertEqual(set(metrics), set(spans.LAYER_UNITS))
                for key, value in expected.items():
                    if value is not None:
                        self.assertEqual(metrics[key], value)
                if name == "smooth-wide":
                    self.assertGreater(metrics["estimator.smooth_s"], 0.0)
                    self.assertEqual(metrics["cli.bytes_written"], 0)
                else:
                    self.assertGreater(metrics["ingest.cells"], 0)
                    self.assertGreater(metrics["cli.self_s"], 0.0)

    def test_originals_restored(self):
        before = FLEXLS.estimator.KalmanEstimator.update
        self.traced(self.session("backtest-raw"), spans.Tracer())
        self.assertIs(FLEXLS.estimator.KalmanEstimator.update, before)

    def test_missing_name_degrades(self):
        renamed = tuple(
            t._replace(attr="load_csv_renamed") if t.span == "ingest.load_csv" else t
            for t in spans.TARGETS
        )
        tracer = spans.Tracer(targets=renamed)
        session = self.session("sweep-svd")
        metrics = self.traced(session, tracer)
        self.assertEqual(tracer.absent, {"ingest.load_csv"})
        gone = {"ingest.load_csv_s", "ingest.cells", "ingest.cells_per_s", "cli.self_s"}
        self.assertEqual(set(spans.LAYER_UNITS) - set(metrics), gone)
        self.assertEqual(metrics["eigentrack.updates_per_row"], 4.0)
        self.run_ok(session)                  # untraced run unaffected
        self.assertEqual(session.failures, [])


class TestBenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            run.TRACE_UNITS,
        )
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class TestStationarity(unittest.TestCase):
    def test_exact_minimizer_of_a_small_problem(self):
        # Dense solve of the stationarity system, independent of the package.
        rng = np.random.default_rng(3)
        T, p, mu, s0 = 6, 2, 0.5, checks.SMOOTH_PRIOR_CURVATURE
        xs = rng.standard_normal((T, p))
        ys = rng.standard_normal(T)
        A = np.zeros((T * p, T * p))
        rhs = np.zeros(T * p)
        for t in range(T):
            blk = slice(t * p, (t + 1) * p)
            A[blk, blk] += np.outer(xs[t], xs[t])
            rhs[blk] += xs[t] * ys[t]
            if t:
                prev = slice((t - 1) * p, t * p)
                for a, b, sign in ((blk, blk, 1), (prev, prev, 1), (blk, prev, -1), (prev, blk, -1)):
                    A[a, b] += sign * mu * np.eye(p)
        A[:p, :p] += s0 * np.eye(p)
        path = np.linalg.solve(A, rhs).reshape(T, p)
        self.assertLess(checks.stationarity_residual(xs, ys, mu, path), 1e-12)


if __name__ == "__main__":
    unittest.main()
