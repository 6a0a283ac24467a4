"""Timing spans around flexls's public names, for the benchmark's traced run.

``Tracer.install`` replaces module attributes and class methods with
wrappers that record one span per call (name, start, end, parent span, run
id) and ``Tracer.uninstall`` puts the originals back.  Nothing in the
package changes on disk, and spans stay in memory until the benchmark
writes them out at the end.

A name that attribute lookup cannot find is recorded as absent, and every
per-layer metric built from it is left out; the other metrics, and the
untraced runs, are unaffected.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, NamedTuple

CLI_SPAN = "cli.main"   # opened by the benchmark around its own call to main


def _cell_count(args, kwargs, result) -> int:
    return int(result.prices.size)


def _file_bytes(args, kwargs, result) -> int:
    # The package's CSV writers take the output path first.
    return os.path.getsize(args[0] if args else kwargs["path"])


class Target(NamedTuple):
    module: str
    cls: str | None          # class holding the method, or None for a module attribute
    attr: str
    span: str
    counter: str | None = None
    count: Callable | None = None   # (args, kwargs, result) -> amount


TARGETS = (
    Target("flexls.cli", None, "load_csv", "ingest.load_csv", "ingest.cells", _cell_count),
    Target("flexls.cli", None, "forward_fill", "ingest.forward_fill"),
    Target("flexls.cli", None, "to_log_returns", "ingest.to_log_returns"),
    Target("flexls.cli", None, "run_backtest", "strategy.run_backtest"),
    Target("flexls.cli", None, "summarize", "metrics.summarize"),
    Target("flexls.cli", None, "write_ledger_csv", "strategy.write_ledger",
           "strategy.ledger_bytes", _file_bytes),
    Target("flexls.cli", None, "write_coefficient_csv", "estimator.write_coefficients",
           "estimator.coefficient_bytes", _file_bytes),
    Target("flexls.cli", None, "write_report_csv", "metrics.write_report"),
    Target("flexls.strategy", None, "estimate_spreads", "strategy.estimate_spreads"),
    Target("flexls.strategy", None, "simulate_trading", "strategy.simulate_trading"),
    Target("flexls.eigentrack", "EigenTracker", "__init__", "eigentrack.init"),
    Target("flexls.eigentrack", "EigenTracker", "update", "eigentrack.update"),
    Target("flexls.eigentrack", "EigenTracker", "project", "eigentrack.project"),
    Target("flexls.estimator", "KalmanEstimator", "update", "estimator.kf_update"),
    Target("flexls.estimator", None, "fls_smooth_batch", "estimator.smooth"),
)

# Per-layer metric name -> unit.  ``trace.overhead_s`` is added by the runner.
LAYER_UNITS = {
    "ingest.load_csv_s": "s",
    "ingest.cells": "count",
    "ingest.cells_per_s": "1/s",
    "ingest.prepare_s": "s",
    "eigentrack.update_s": "s",
    "eigentrack.project_s": "s",
    "eigentrack.updates": "count",
    "eigentrack.updates_per_row": "ratio",
    "estimator.kf_update_s": "s",
    "estimator.kf_updates": "count",
    "estimator.kf_updates_per_s": "1/s",
    "estimator.smooth_s": "s",
    "estimator.write_coefficients_s": "s",
    "estimator.coefficient_bytes": "bytes",
    "strategy.estimate_spreads_self_s": "s",
    "strategy.simulate_trading_s": "s",
    "strategy.write_ledger_s": "s",
    "strategy.ledger_bytes": "bytes",
    "metrics.summarize_s": "s",
    "metrics.write_report_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
}


def _owner(target: Target):
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    return owner if target.cls is None else getattr(owner, target.cls, None)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[list] = []       # [name, start, end, parent index, run id]
        self.counts: list[tuple] = []     # (counter, amount, run id)
        self.absent: set[str] = set()     # spans and counters that could not be recorded
        self.run_id = 0
        self._open: list[int] = []
        self._saved: list[tuple] = []     # (owner, attr, had own attribute, original)

    def install(self) -> None:
        for target in self.targets:
            owner = _owner(target)
            fn = getattr(owner, target.attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.add(target.span)
                continue
            own = vars(owner)
            self._saved.append((owner, target.attr, target.attr in own, own.get(target.attr)))
            setattr(owner, target.attr, self._wrap(fn, target))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, had, original = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if target.count is not None:
                try:
                    amount = target.count(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    self.absent.add(target.counter)
                else:
                    self.counts.append((target.counter, amount, self.run_id))
            return result

        return traced

    def layer_metrics(self, run_id: int, rows: int, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of one traced run; ``rows`` is the return row count."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered: dict[int, float] = defaultdict(float)
        mine = [i for i, span in enumerate(self.spans) if span[4] == run_id]
        for i in mine:
            name, start, end, parent, _ = self.spans[i]
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                covered[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for i in mine:
            name, start, end, _, _ = self.spans[i]
            self_time[name] += (end - start) - covered[i]
        counts: dict[str, int] = defaultdict(int)
        for counter, amount, run in self.counts:
            if run == run_id:
                counts[counter] += amount

        out: dict[str, float] = {}

        def put(metric: str, value: float, *needs: str) -> None:
            if self.absent.isdisjoint(needs):
                out[metric] = value

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0.0 else 0.0

        kf = "estimator.kf_update"
        tracker = ("eigentrack.init", "eigentrack.update", "eigentrack.project")
        cli_children = tuple(t.span for t in self.targets if t.module == "flexls.cli")
        put("ingest.load_csv_s", total["ingest.load_csv"], "ingest.load_csv")
        put("ingest.cells", counts["ingest.cells"], "ingest.load_csv", "ingest.cells")
        put("ingest.cells_per_s", rate(counts["ingest.cells"], total["ingest.load_csv"]),
            "ingest.load_csv", "ingest.cells")
        put("ingest.prepare_s", total["ingest.forward_fill"] + total["ingest.to_log_returns"],
            "ingest.forward_fill", "ingest.to_log_returns")
        put("eigentrack.update_s", total["eigentrack.update"], "eigentrack.update")
        put("eigentrack.project_s", total["eigentrack.project"], "eigentrack.project")
        put("eigentrack.updates", calls["eigentrack.update"], "eigentrack.update")
        put("eigentrack.updates_per_row", calls["eigentrack.update"] / rows, "eigentrack.update")
        put("estimator.kf_update_s", total[kf], kf)
        put("estimator.kf_updates", calls[kf], kf)
        put("estimator.kf_updates_per_s", rate(calls[kf], total[kf]), kf)
        put("estimator.smooth_s", total["estimator.smooth"], "estimator.smooth")
        put("estimator.write_coefficients_s", total["estimator.write_coefficients"],
            "estimator.write_coefficients")
        put("estimator.coefficient_bytes", counts["estimator.coefficient_bytes"],
            "estimator.write_coefficients", "estimator.coefficient_bytes")
        put("strategy.estimate_spreads_self_s", self_time["strategy.estimate_spreads"],
            "strategy.estimate_spreads", kf, *tracker)
        put("strategy.simulate_trading_s", total["strategy.simulate_trading"],
            "strategy.simulate_trading")
        put("strategy.write_ledger_s", total["strategy.write_ledger"], "strategy.write_ledger")
        put("strategy.ledger_bytes", counts["strategy.ledger_bytes"],
            "strategy.write_ledger", "strategy.ledger_bytes")
        put("metrics.summarize_s", total["metrics.summarize"], "metrics.summarize")
        put("metrics.write_report_s", total["metrics.write_report"], "metrics.write_report")
        put("cli.self_s", self_time[CLI_SPAN], *cli_children)
        put("cli.bytes_written", bytes_written)
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "absent": sorted(self.absent),
        }
