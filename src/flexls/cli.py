"""Command-line interface.

Subcommands:

* ``backtest``      run the strategy over a price CSV for each smoothing value
* ``sim-fig2``      regenerate the four-regime tracking experiment
* ``sweep-sharpe``  sweep the smoothing grid and report the Sharpe curve

Config files are flat ``key = value`` text; ``#`` starts a comment.  Exit
codes: 0 success, 2 configuration problem (unknown key, bad value, missing
requirement), 3 data problem (unreadable or malformed input).  All input is
loaded and every number computed before the first output file is opened, so
a failing run leaves no partial outputs.  Given equal inputs, outputs are
byte-identical across reruns.  ``flexls --version`` also names the filter
kernel that runs: ``numba`` (JIT-compiled) or ``python`` (interpreted).
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import (
    KERNEL_BACKEND,
    KalmanEstimator,
    Smoothing,
    fls_smooth_batch,
    write_coefficient_csv,
)
from .ingest import (
    DataError,
    apply_split_factors,
    forward_fill,
    load_csv,
    load_split_file,
    to_log_returns,
)
from .metrics import format_report_table, summarize, write_report_csv
from .strategy import (
    RULES,
    EstimatorConfig,
    FeatureConfig,
    SizingConfig,
    compute_features,
    run_backtest,
    write_ledger_csv,
)
from .synth import Fig2Config, gen_fig2
from .util import open_text, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(Exception):
    """A configuration problem, attributed to one field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines, as ``util.open_text`` reads them
    (ended by ``\n``), into a dict.  Duplicates are errors."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in out:
            raise ConfigError(key, f"duplicate key (line {lineno})")
        out[key] = value
    return out


_JOB_DEFAULTS = {
    "features": "raw",
    "amnesia": "0",
    "prior_scale": "1e6",
    "multiplier": "250",
    "endowment": "1e8",
    "cost_per_contract": "0",
    "rule": "mean-reversion",
    "max_missing": "0.1",
    "out_dir": ".",
    "trading_days": "252",
}
_JOB_KEYS = set(_JOB_DEFAULTS) | {
    "data",
    "target",
    "delta",
    "delta_grid",
    "warmup",
    "warmup_end",
    "splits",
}


@dataclass
class BacktestJob:
    """Fully resolved parameters of one backtest or sweep run."""

    data: str
    target: str
    deltas: tuple[float, ...]
    single_delta: bool           # config gave 'delta' rather than 'delta_grid'
    features: FeatureConfig
    estimator: EstimatorConfig   # prior_scale; delta is deltas[0]
    sizing: SizingConfig
    rule: str
    warmup: int | None
    warmup_end: dt.date | None
    splits: str | None
    max_missing: float
    out_dir: str
    trading_days: int

    def estimator_config(self, delta: float) -> EstimatorConfig:
        return replace(self.estimator, delta=delta)

    def effective_text(self) -> str:
        """Config text that reproduces this job exactly when re-parsed."""
        lines = [
            f"data = {self.data}",
            f"target = {self.target}",
        ]
        if self.single_delta:
            lines.append(f"delta = {self.deltas[0]!r}")
        else:
            lines.append(
                "delta_grid = " + ",".join(repr(d) for d in self.deltas)
            )
        if self.features.mode == "svd":
            lines.append(f"features = svd:{self.features.k}")
        else:
            lines.append(f"features = {self.features.mode}")
        lines.append(f"amnesia = {self.features.amnesia!r}")
        lines.append(f"prior_scale = {self.estimator.prior_scale!r}")
        lines.append(f"multiplier = {self.sizing.multiplier!r}")
        lines.append(f"endowment = {self.sizing.endowment!r}")
        lines.append(f"cost_per_contract = {self.sizing.cost_per_contract!r}")
        lines.append(f"rule = {self.rule}")
        if self.warmup is not None:
            lines.append(f"warmup = {self.warmup}")
        else:
            lines.append(f"warmup_end = {self.warmup_end.isoformat()}")
        if self.splits is not None:
            lines.append(f"splits = {self.splits}")
        lines.append(f"max_missing = {self.max_missing!r}")
        lines.append(f"out_dir = {self.out_dir}")
        lines.append(f"trading_days = {self.trading_days}")
        return "\n".join(lines) + "\n"


def _parse_float(raw: dict[str, str], key: str) -> float:
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(key, f"not a number: {raw[key]!r}") from None


def _parse_int(raw: dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(key, f"not an integer: {raw[key]!r}") from None


def _parse_delta_list(key: str, text: str) -> tuple[float, ...]:
    items = [cell.strip() for cell in text.split(",") if cell.strip()]
    if not items:
        raise ConfigError(key, "no values given")
    deltas = []
    for cell in items:
        try:
            value = float(cell)
        except ValueError:
            raise ConfigError(key, f"not a number: {cell!r}") from None
        try:
            Smoothing(value)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
        deltas.append(value)
    deduped: list[float] = []
    for value in deltas:
        if value in deduped:
            print(
                f"warning: duplicate delta {value!r} ignored", file=sys.stderr
            )
        else:
            deduped.append(value)
    return tuple(deduped)


def _library_config(field: str, make, **values):
    """``make(**values)``, with the library's ``ValueError`` as a config error."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def _parse_features(raw: dict[str, str], mode_text: str) -> FeatureConfig:
    """Feature settings from 'raw', 'svd' (the default factor count) or 'svd:<k>'.

    ``amnesia`` is checked in every mode, though only svd uses it.
    """
    values = {"amnesia": _parse_float(raw, "amnesia")}
    mode = mode_text.strip()
    if mode.startswith("svd:"):
        try:
            values["k"] = int(mode[4:])
        except ValueError:
            raise ConfigError("features", f"bad factor count in {mode!r}") from None
        mode = "svd"
    elif mode not in ("raw", "svd"):
        raise ConfigError(
            "features", f"expected 'raw', 'svd' or 'svd:<k>', got {mode!r}"
        )
    return _library_config("features", FeatureConfig, mode=mode, **values)


def _recordable_out_dir(out_dir: str) -> str:
    """``out_dir``, checked to parse back unchanged from effective_config.txt.

    Only a command-line value can fail this: a config's value is already
    stripped and cut at its ``#``.
    """
    if out_dir != out_dir.strip() or any(c in out_dir for c in "#\n\r"):
        raise ConfigError("--out-dir", f"{out_dir!r}: a '#', a line break or "
                          "edge whitespace cannot be recorded in a config")
    return out_dir


def build_job(raw: dict[str, str], args, need_grid: bool) -> BacktestJob:
    """Resolve a raw config dict plus command-line overrides into a job."""
    for key in raw:
        if key not in _JOB_KEYS:
            raise ConfigError(key, "unknown key")
    merged = dict(_JOB_DEFAULTS)
    merged.update(raw)
    for key in ("data", "target"):
        if key not in merged or not merged[key]:
            raise ConfigError(key, "required")

    if "delta" in merged and "delta_grid" in merged:
        raise ConfigError("delta", "give either delta or delta_grid, not both")
    if getattr(args, "delta", None) is not None:
        try:
            Smoothing(args.delta)
        except ValueError as exc:
            raise ConfigError("--delta", str(exc)) from None
        deltas: tuple[float, ...] = (args.delta,)
        single = True
    elif need_grid:
        if "delta_grid" not in merged:
            raise ConfigError("delta_grid", "required for a sweep")
        deltas = _parse_delta_list("delta_grid", merged["delta_grid"])
        single = False
    elif "delta" in merged:
        deltas = _parse_delta_list("delta", merged["delta"])
        if len(deltas) != 1:
            raise ConfigError("delta", "expected a single value")
        single = True
    elif "delta_grid" in merged:
        deltas = _parse_delta_list("delta_grid", merged["delta_grid"])
        single = False
    else:
        raise ConfigError("delta", "required (or give delta_grid)")

    features_text = getattr(args, "features", None) or merged["features"]
    features = _parse_features(merged, features_text)

    rule = merged["rule"]
    if rule not in RULES:
        raise ConfigError("rule", f"must be one of {RULES}, got {rule!r}")

    estimator = _library_config(
        "prior_scale",
        EstimatorConfig,
        delta=deltas[0],
        prior_scale=_parse_float(merged, "prior_scale"),
    )
    sizing = _library_config(
        "multiplier/endowment/cost_per_contract",
        SizingConfig,
        multiplier=_parse_float(merged, "multiplier"),
        endowment=_parse_float(merged, "endowment"),
        cost_per_contract=_parse_float(merged, "cost_per_contract"),
    )

    warmup: int | None = None
    warmup_end: dt.date | None = None
    if "warmup" in merged and "warmup_end" in merged:
        raise ConfigError("warmup", "give either warmup or warmup_end, not both")
    if "warmup" in merged:
        warmup = _parse_int(merged, "warmup")
        if warmup < 1:
            raise ConfigError("warmup", "must be >= 1 (a training period is needed)")
    elif "warmup_end" in merged:
        try:
            warmup_end = dt.date.fromisoformat(merged["warmup_end"])
        except ValueError:
            raise ConfigError(
                "warmup_end", f"bad ISO date: {merged['warmup_end']!r}"
            ) from None
    else:
        raise ConfigError("warmup", "required (or give warmup_end)")

    max_missing = _parse_float(merged, "max_missing")
    if not (0.0 <= max_missing <= 1.0):
        raise ConfigError("max_missing", "must lie in [0, 1]")
    trading_days = _parse_int(merged, "trading_days")
    if trading_days < 1:
        raise ConfigError("trading_days", "must be >= 1")

    out_dir = _recordable_out_dir(getattr(args, "out_dir", None) or merged["out_dir"])

    return BacktestJob(
        data=merged["data"],
        target=merged["target"],
        deltas=deltas,
        single_delta=single,
        features=features,
        estimator=estimator,
        sizing=sizing,
        rule=rule,
        warmup=warmup,
        warmup_end=warmup_end,
        splits=merged.get("splits"),
        max_missing=max_missing,
        out_dir=out_dir,
        trading_days=trading_days,
    )


def _load_job_config(args, need_grid: bool) -> BacktestJob:
    try:
        with open_text(args.config) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("--config", f"cannot read {args.config}: {exc}") from None
    return build_job(parse_config_text(text), args, need_grid)


def _load_returns(job: BacktestJob):
    try:
        table = load_csv(job.data, job.target, job.max_missing)
        if job.splits is not None:
            table = apply_split_factors(table, load_split_file(job.splits))
    except OSError as exc:
        raise DataError(str(exc)) from exc
    table = forward_fill(table)
    # Taken first: to_log_returns writes the returns over the prices.
    index_prices = table.prices[:, 0].copy()
    return to_log_returns(table), index_prices


def _resolve_warmup(job: BacktestJob, returns) -> int:
    if job.warmup is not None:
        warmup = job.warmup
    else:
        warmup = sum(1 for day in returns.dates if day < job.warmup_end)
    n = len(returns)
    if not (1 <= warmup < n):
        raise DataError(
            f"warmup of {warmup} rows must leave both training and evaluation "
            f"data (sample has {n} return rows)"
        )
    return warmup


def _run_grid(job: BacktestJob):
    """Yield ``(delta, ledger, path, report)`` for each delta of the job.

    Shared by ``backtest`` and ``sweep-sharpe``.  The data and the feature
    pass do not depend on delta, so both run once and every delta's
    regression reads the same regressors.  Bad data raises ``DataError``,
    which ``main`` reports as a data error; callers collect every result
    before opening an output file, so a failing run leaves no outputs.
    """
    returns, index_prices = _load_returns(job)
    warmup = _resolve_warmup(job, returns)
    regressors = _library_config(
        "features", compute_features, returns=returns, features=job.features
    )
    for delta in job.deltas:
        ledger, path = run_backtest(
            returns,
            index_prices,
            job.estimator_config(delta),
            regressors,
            job.sizing,
            warmup=warmup,
            rule=job.rule,
        )
        report = summarize(
            ledger, job.sizing.endowment, split=warmup,
            trading_days_per_year=job.trading_days,
        )
        yield delta, ledger, path, report


def _prepare_out_dir(job: BacktestJob) -> Path:
    """Create the job's output directory and write its effective config."""
    out = Path(job.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.txt").write_text(
        job.effective_text(), encoding="utf-8"
    )
    return out


def _cmd_backtest(args) -> int:
    job = _load_job_config(args, need_grid=False)
    results = list(_run_grid(job))

    out = _prepare_out_dir(job)
    for delta, ledger, path, _ in results:
        write_ledger_csv(out / f"ledger_{delta!r}.csv", ledger)
        write_coefficient_csv(
            out / f"coefficients_{delta!r}.csv",
            path.betas,
            path.innovations,
            path.forecast_vars,
        )
    write_report_csv(out / "report.csv", [(d, r) for d, _, _, r in results])
    print(format_report_table([(d, r) for d, _, _, r in results]))
    return EXIT_OK


def _cmd_sweep_sharpe(args) -> int:
    job = _load_job_config(args, need_grid=True)
    curve = [(delta, report.sharpe) for delta, _, _, report in _run_grid(job)]

    out = _prepare_out_dir(job)
    # dtype=float turns an absent Sharpe (None) into NaN.
    table = np.array(curve, dtype=float).reshape(len(curve), 2)
    write_table(out / "sweep_sharpe.csv", ["delta", "sharpe"], table.T)
    width = max(len("delta"), *(len(f"{d:g}") for d, _ in curve))
    print("delta".rjust(width) + "  sharpe")
    for d, s in curve:
        shown = "-" if s is None else f"{s:.4f}"
        print(f"{d:g}".rjust(width) + f"  {shown}")
    return EXIT_OK


def _cmd_sim_fig2(args) -> int:
    smoothing = _library_config("--delta", Smoothing, delta=args.delta)
    cfg = _library_config("--seed", Fig2Config, seed=args.seed)
    _recordable_out_dir(args.out_dir)
    x, y, beta_true = gen_fig2(cfg)
    T = cfg.steps

    do_online = args.mode in ("online", "both")
    do_offline = args.mode in ("offline", "both")

    paths = {}
    if do_online:
        kf = KalmanEstimator.from_smoothing(1, smoothing)
        online = np.empty(T)
        for i in range(T):
            kf.update(x[i : i + 1], y[i])
            online[i] = kf.beta[0]
        paths["beta_online"] = online
    if do_offline:
        paths["beta_offline"] = fls_smooth_batch(x[:, None], y, smoothing)[:, 0]

    # Regime windows follow the generator: step 1 is the initial condition,
    # the walk starts moving at step 2.
    segments = [
        ("walk", 2, cfg.walk_until),
        ("drift", cfg.jump_step, cfg.drift_until),
        ("sine", cfg.drift_until + 1, cfg.steps),
        ("all", 1, cfg.steps),
    ]

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_table(
        out / "fig2_paths.csv",
        ["t", "x", "y", "beta_true"] + list(paths),
        [np.arange(1, T + 1), x, y, beta_true, *paths.values()],
    )
    summary = [
        (name.removeprefix("beta_"), seg, lo, min(hi, T),
         float(np.mean((est[lo - 1 : hi] - beta_true[lo - 1 : hi]) ** 2)))
        for name, est in paths.items()
        for seg, lo, hi in segments
        if lo <= T
    ]
    write_table(
        out / "fig2_summary.csv",
        ["mode", "segment", "t_start", "t_end", "mse"],
        list(zip(*summary)),
    )
    (out / "effective_config.txt").write_text(
        f"seed = {args.seed}\ndelta = {args.delta!r}\nmode = {args.mode}\n"
        f"out_dir = {args.out_dir}\n",
        encoding="utf-8",
    )
    print(f"wrote {out / 'fig2_paths.csv'} and {out / 'fig2_summary.csv'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexls",
        description="Streaming time-varying regression backtests",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"flexls {__version__} (kernel: {KERNEL_BACKEND})",
        help="print the version and the filter kernel in use (numba or python)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bt = sub.add_parser("backtest", help="run the strategy over a price CSV")
    bt.add_argument("--config", required=True, help="flat key = value config file")
    bt.add_argument("--out-dir", help="override the config's output directory")
    bt.add_argument("--delta", type=float, help="run a single smoothing value")
    bt.add_argument("--features", help="override feature mode: raw, svd or svd:<k>")
    bt.set_defaults(func=_cmd_backtest)

    sw = sub.add_parser("sweep-sharpe", help="Sharpe ratio across a delta grid")
    sw.add_argument("--config", required=True, help="flat key = value config file")
    sw.add_argument("--out-dir", help="override the config's output directory")
    sw.add_argument("--features", help="override feature mode: raw, svd or svd:<k>")
    sw.set_defaults(func=_cmd_sweep_sharpe)

    f2 = sub.add_parser("sim-fig2", help="four-regime tracking experiment")
    f2.add_argument("--seed", type=int, default=0)
    f2.add_argument("--delta", type=float, default=0.98)
    f2.add_argument("--mode", choices=["online", "offline", "both"], default="both")
    f2.add_argument("--out-dir", default=".")
    f2.set_defaults(func=_cmd_sim_fig2)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err.field}: {err.message}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
