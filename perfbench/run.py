#!/usr/bin/env python3
"""Benchmark for flexls: three paper-scale workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-svd --seed 0 --seconds 30 --trace 0

Workloads (one process, closed loop: one run at a time, the next starts when
the previous returns):

* ``sweep-svd``     CLI ``sweep-sharpe``, 432 streams x 2,500 days, ``svd:3``
                    features, delta grid 0.2,0.5,0.9,0.98, warmup 500.
* ``backtest-raw``  CLI ``backtest``, 432 streams x 1,000 days, raw features
                    (p = 432), delta grid 0.9,0.98, warmup 200.
* ``smooth-wide``   library ``fls_smooth_batch`` at delta 0.9 on the log
                    returns of 128 streams x 2,500 days.

Both CLI workloads scale the market's stream volatilities (see ``CALM``).
``BENCHMARK.json`` lists only the two CLI workloads, so that their runs can
be long enough to be steady on a small shared machine; ``smooth-wide``
runs on request (``all.sh`` runs all three).

Inputs come only from ``flexls.synth.gen_market`` with the given seed and are
written before anything is timed.  ``--trace 0`` reports the end-to-end
metrics: ``wall_s`` (median timed run after a discarded warm-up),
``rows_per_s``, ``peak_mem_mb`` (tracemalloc peak of a separate run) and
``setup_s`` (median over fresh interpreters);
``--trace 1`` reports per-layer metrics from traced runs interleaved with
untraced ones (see ``spans.py``).  Every run's outputs are checked
(``checks.py``); a run that raises, exits non-zero or fails a check counts
as failed.  The last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the same numbers, the samples and an environment record is written to
``.perfbench/`` at the repository root.

The package is imported from ``src/`` next to this directory.  Without it
the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported; child interpreters inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = 0        # reference.json holds this seed's outputs
N_FACTORS = 5
MULTIPLIER = 250.0      # contract multiplier written into every CLI config
SETUP_PROBES = 5        # fresh interpreters timed for setup_s
MIN_RUNS = 3            # timed runs made even when --seconds is short
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "1/s",
    "peak_mem_mb": "MB",
    "setup_s": "s",
}
TRACE_UNITS = {**spans.LAYER_UNITS, "trace.overhead_s": "s"}


@dataclass(frozen=True)
class Workload:
    name: str
    n_streams: int
    steps: int                  # price rows; return rows are one fewer
    deltas: tuple[float, ...]
    command: str | None         # CLI subcommand, or None for the library smoother
    features: str = "raw"
    warmup: int = 0
    vol_scale: float = 1.0      # multiplies gen_market's default stream volatilities

    @property
    def rows(self) -> int:
        return self.steps - 1

    @property
    def work_rows(self) -> int:
        return self.rows * len(self.deltas)


# The target stream is a fixed combination of the explanatory streams with
# weights summing to about 0.6 * n_streams.  At gen_market's default
# volatilities a 432-stream target moves about 145% a day, and on half the
# seeds its price falls below 1e-13, where a contract count no longer fits
# in int64.  The trading workloads therefore scale the stream volatilities
# by 8 / 432, which gives the target the daily volatility (about 3%) of the
# generator's default 8-stream market.  The smoother trades nothing and
# keeps the defaults.
CALM = 8 / 432

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-svd", 432, 2500, (0.2, 0.5, 0.9, 0.98), "sweep-sharpe", "svd:3", 500, CALM),
        Workload("backtest-raw", 432, 1000, (0.9, 0.98), "backtest", "raw", 200, CALM),
        Workload("smooth-wide", 128, 2500, (0.9,), None),
    )
}

# Time to import the package plus its first filter update, in a fresh
# interpreter: the per-process cost every user pays (JIT compile or cache
# load when numba is present).
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flexls
from flexls.estimator import KalmanEstimator
KalmanEstimator(3, vomega=0.1).update([0.01, -0.02, 0.03], 0.001)
print(time.perf_counter() - start)
"""


class RunError(Exception):
    """A workload run exited non-zero."""


def import_flexls():
    """Import flexls from this checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "flexls" / "__init__.py").is_file():
        print(f"error: no flexls package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    flexls = importlib.import_module("flexls")
    if SRC not in Path(flexls.__file__).resolve().parents:
        print(f"error: flexls imported from {flexls.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for sub in ("cli", "estimator", "synth"):
        importlib.import_module(f"flexls.{sub}")
    return flexls


def write_prices(path: Path, table) -> None:
    """The price table as CSV, 17 significant digits, no holes."""
    row = "%s" + ",%.17g" * table.prices.shape[1] + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["date", *table.labels]) + "\n")
        for day, prices in zip(table.dates, table.prices.tolist()):
            fh.write(row % (day.isoformat(), *prices))


@dataclass
class RunResult:
    wall_s: float
    peak_bytes: int | None
    bytes_written: int


class Session:
    """One workload's inputs, runs and output checks within one process.

    Every run's outputs must be byte-identical to the session's first
    successful run; that first run also passes the workload's value checks,
    against ``reference`` when one is given.
    """

    def __init__(self, flexls, workload: Workload, seed: int, work: Path,
                 reference: dict | None = None) -> None:
        self.flexls = flexls
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self._first_digest = None
        self._first_error: str | None = None

    def prepare(self) -> None:
        """Generate and write the inputs.  Not timed."""
        w = self.workload
        market = self.flexls.synth.MarketConfig
        base = market()
        cfg = market(
            n_streams=w.n_streams, n_factors=N_FACTORS, steps=w.steps, seed=self.seed,
            factor_vol=base.factor_vol * w.vol_scale, idio_vol=base.idio_vol * w.vol_scale,
        )
        table, _ = self.flexls.synth.gen_market(cfg)
        if w.command is None:
            returns = np.diff(np.log(table.prices), axis=0)
            self.target = np.ascontiguousarray(returns[:, 0])
            self.features = np.ascontiguousarray(returns[:, 1:])
            return
        write_prices(self.work / "prices.csv", table)
        self.out_dir = self.work / "out"
        self.config = self.work / "job.cfg"
        self.config.write_text(
            f"data = {self.work / 'prices.csv'}\n"
            "target = INDEX\n"
            f"features = {w.features}\n"
            f"delta_grid = {','.join(repr(d) for d in w.deltas)}\n"
            f"warmup = {w.warmup}\n"
            f"multiplier = {MULTIPLIER!r}\n"
            "cost_per_contract = 0\n"
            f"out_dir = {self.out_dir}\n"
        )

    def _execute(self, tracer, memory: bool):
        """One run.  Returns (RunResult, output to check)."""
        w = self.workload
        if w.command is not None:
            if self.out_dir.exists():
                for path in self.out_dir.iterdir():
                    path.unlink()
            argv = [w.command, "--config", str(self.config)]
            call = lambda: self.flexls.cli.main(argv)  # noqa: E731
            root = tracer.span(spans.CLI_SPAN) if tracer else contextlib.nullcontext()
        else:
            smoothing = self.flexls.estimator.Smoothing(w.deltas[0])
            call = lambda: self.flexls.estimator.fls_smooth_batch(  # noqa: E731
                self.features, self.target, smoothing
            )
            root = contextlib.nullcontext()
        gc.collect()
        if memory:
            tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                with root:
                    output = call()
                wall = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1] if memory else None
        finally:
            if memory:
                tracemalloc.stop()
        if w.command is None:
            return RunResult(wall, peak, 0), output
        if output != 0:
            raise RunError(f"flexls {w.command} exited with code {output}")
        written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        return RunResult(wall, peak, written), self.out_dir

    def _check_values(self, output) -> None:
        w = self.workload
        if w.command == "sweep-sharpe":
            checks.check_sweep(output, w.deltas, self.reference)
        elif w.command == "backtest":
            checks.check_backtest(output, w.deltas, MULTIPLIER, self.reference)
        else:
            mu = (1.0 - w.deltas[0]) / w.deltas[0]
            checks.check_smooth(self.features, self.target, mu, output)

    def check(self, output) -> None:
        if self.workload.command is None:
            digest = checks.digest_array(output)
        else:
            digest = checks.digest_dir(output)
        if self._first_digest is None:
            self._first_digest = digest
            try:
                self._check_values(output)
            except checks.CheckError as exc:
                self._first_error = str(exc)
        elif digest != self._first_digest:
            first = self._first_digest
            if isinstance(digest, dict):
                names = sorted(k for k in {*digest, *first} if digest.get(k) != first.get(k))
                raise checks.CheckError(f"outputs differ from this session's first run: {names}")
            raise checks.CheckError("output differs from this session's first run")
        if self._first_error is not None:
            raise checks.CheckError(self._first_error)

    def attempt(self, tracer=None, memory: bool = False) -> RunResult | None:
        """Run and check once; a failure is recorded and returns None."""
        self.attempted += 1
        try:
            result, output = self._execute(tracer, memory)
            self.check(output)
        except (Exception, SystemExit):   # a failed run is counted, not fatal
            self.failures.append(f"run {self.attempted}: {traceback.format_exc()}")
            print(f"run {self.attempted} failed: {self.failures[-1].splitlines()[-1]}",
                  file=sys.stderr)
            return None
        return result

    def probe_setup(self) -> float | None:
        """setup_s once, from a fresh interpreter; a failure counts as a failed run."""
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
            )
            return float(proc.stdout.split()[-1])
        except (OSError, subprocess.SubprocessError, ValueError, IndexError):
            self.failures.append(f"setup probe {self.attempted}: {traceback.format_exc()}")
            return None


def timed_loop(seconds: float, step) -> None:
    """Call ``step(i)`` until ``seconds`` have passed and at least MIN_RUNS calls."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_RUNS or time.perf_counter() < deadline:
        step(i)
        i += 1


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setups = [s for s in (session.probe_setup() for _ in range(SETUP_PROBES)) if s is not None]
    session.attempt()   # warm-up, discarded: fills caches, fixes the session's outputs
    walls: list[float] = []

    def step(_):
        result = session.attempt()
        if result is not None:
            walls.append(result.wall_s)

    timed_loop(seconds, step)
    memory = session.attempt(memory=True)

    metrics = {}
    if walls:
        wall = statistics.median(walls)
        metrics["wall_s"] = wall
        metrics["rows_per_s"] = session.workload.work_rows / wall
    if memory is not None:
        metrics["peak_mem_mb"] = memory.peak_bytes / 1e6
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    samples = {"wall_s": walls, "setup_s": setups}
    return metrics, samples


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict, spans.Tracer]:
    session.attempt()   # warm-up, untraced and discarded
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []

    def traced_run(run_id: int) -> None:
        tracer.run_id = run_id
        tracer.install()
        try:
            result = session.attempt(tracer=tracer)
        finally:
            tracer.uninstall()
        if result is not None:
            traced.append(result.wall_s)
            layers.append(tracer.layer_metrics(run_id, session.workload.rows, result.bytes_written))

    def plain_run() -> None:
        result = session.attempt()
        if result is not None:
            plain.append(result.wall_s)

    def step(i):
        # Alternate which side of the pair runs first.
        if i % 2:
            traced_run(i)
            plain_run()
        else:
            plain_run()
            traced_run(i)

    timed_loop(seconds, step)

    metrics = {}
    if layers:
        for name in spans.LAYER_UNITS:
            values = [run[name] for run in layers if name in run]
            if len(values) == len(layers):
                metrics[name] = statistics.median(values)
    if plain and traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return metrics, samples, tracer


def kernel_backend(estimator) -> str:
    """``python`` when the filter step is the interpreted function, else ``numba``."""
    step = getattr(estimator, "_kf_step", None)
    impl = getattr(estimator, "_kf_step_impl", None)
    if step is None or impl is None:
        return "unknown"
    return "python" if step is impl else "numba"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read from the library itself."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    top, _, commit = proc.stdout.strip().partition("\n")
    return commit if Path(top).resolve() == ROOT else "unknown"


def environment(flexls) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "kernel_backend": kernel_backend(flexls.estimator),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": blas_threads(),
        "blas_thread_setting": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def load_reference(workload: Workload, seed: int) -> dict | None:
    """Recorded outputs of a CLI workload when ``seed`` is the recorded seed, else None."""
    if workload.command is None:
        return None
    recorded = json.loads(REFERENCE_PATH.read_text())
    return recorded["workloads"].get(workload.name) if seed == recorded["seed"] else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    flexls = import_flexls()
    workload = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as work:
        session = Session(flexls, workload, args.seed, Path(work),
                          load_reference(workload, args.seed))
        session.prepare()
        input_setup_s = time.perf_counter() - started
        if args.trace:
            values, samples, tracer = measure_layers(session, args.seconds)
            units = TRACE_UNITS
        else:
            values, samples = measure_end_to_end(session, args.seconds)
            units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    failed = len(session.failures)
    error_rate = failed / session.attempted

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(flexls),
        "input_setup_s": input_setup_s,
        "total_s": time.perf_counter() - started,
        "metrics": metrics,
        "error_rate": error_rate,
        "samples": samples,
        "missing_metrics": sorted(set(units) - set(values)),
        "failures": session.failures,
    }
    if args.trace:
        record["absent_spans"] = sorted(tracer.absent)
        (RESULTS / f"{workload.name}-seed{args.seed}-spans.json").write_text(
            json.dumps(tracer.dump())
        )
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    env = record["environment"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"kernel {env['kernel_backend']}  blas {env['blas']} x{env['blas_threads']}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for name, values_ in samples.items():
        print(f"  {name:34s} {len(values_):>16d} samples")
    for name in record["missing_metrics"]:
        print(f"  {name:34s} {'absent':>16s}")
    print(f"  {'error_rate':34s} {error_rate:>16.6g} ratio ({failed} of {session.attempted} runs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
