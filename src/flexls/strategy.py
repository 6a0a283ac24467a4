"""Residual-fading trading strategy on top of the streaming regression.

Pipeline per day: express the target stream's return on the explanatory
returns (optionally compressed to a few tracked factor scores), take the
regression residual as the day's mispricing, and trade against its sign.
Position size is the whole endowment divided by the contract's dollar value,
orders are the integer-contract difference from the held book, and the day's
profit applies yesterday's position to today's price move, so nothing in the
ledger looks ahead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .eigentrack import EigenTracker
from .estimator import (
    DEFAULT_PRIOR_SCALE,
    FlsEstimator,
    KalmanEstimator,
    Smoothing,
)
from .ingest import DataError, ReturnMatrix

RULES = ("mean-reversion", "buy-hold")
ENGINES = ("kalman", "fls")
FEATURE_MODES = ("raw", "svd")


@dataclass(frozen=True)
class SizingConfig:
    """Contract sizing: endowment committed per day and contract multiplier.

    ``cost_per_contract`` is charged on every contract traded (default
    zero, matching a frictionless account).
    """

    multiplier: float = 250.0
    endowment: float = 1e8
    cost_per_contract: float = 0.0

    def __post_init__(self) -> None:
        if not (self.multiplier > 0.0):
            raise ValueError(f"multiplier must be positive, got {self.multiplier}")
        if not (self.endowment > 0.0):
            raise ValueError(f"endowment must be positive, got {self.endowment}")
        if self.cost_per_contract < 0.0:
            raise ValueError("cost_per_contract must be >= 0")


@dataclass(frozen=True)
class EstimatorConfig:
    """Regression engine selection for the backtest."""

    delta: float
    prior_scale: float = DEFAULT_PRIOR_SCALE
    veps: float = 1.0
    engine: str = "kalman"

    def __post_init__(self) -> None:
        Smoothing(self.delta)   # validates the range
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if not (self.prior_scale > 0.0):
            raise ValueError("prior_scale must be positive")
        if not (self.veps > 0.0):
            raise ValueError("veps must be positive")


@dataclass(frozen=True)
class FeatureConfig:
    """Feature pipeline: raw explanatory returns, or tracked factor scores."""

    mode: str = "raw"
    k: int = 3
    amnesia: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in FEATURE_MODES:
            raise ValueError(
                f"mode must be one of {FEATURE_MODES}, got {self.mode!r}"
            )
        if self.mode == "svd" and self.k < 1:
            raise ValueError("k must be >= 1 in svd mode")


def signal(spread_value: float) -> int:
    """Trade against the residual: -1 rich, +1 cheap, 0 on the knife edge."""
    if math.isnan(spread_value):
        raise ValueError("spread is NaN")
    if spread_value > 0.0:
        return -1
    if spread_value < 0.0:
        return 1
    return 0


def position(sig: int, index_price: float, sizing: SizingConfig) -> float:
    """Suggested (real-valued) contract count for a signal at today's price."""
    if sig not in (-1, 0, 1):
        raise ValueError(f"signal must be -1, 0 or 1, got {sig!r}")
    if not (index_price > 0.0):
        raise ValueError(f"index price must be positive, got {index_price}")
    return sig * sizing.endowment / (sizing.multiplier * index_price)


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0.0 else int(math.ceil(v - 0.5))


def order_size(suggested: float, held: int) -> int:
    """Contracts to trade so the integer book tracks the suggestion.

    Rounds half away from zero, which is odd-symmetric: mirroring every
    spread flips every order exactly.  Keeping the book within half a
    contract of the running suggestion bounds the drift at one contract.
    """
    return _round_half_away(suggested - held)


def daily_pnl(
    price_now: float, price_prev: float, held_suggested: float, sizing: SizingConfig
) -> float:
    """Mark-to-market profit of yesterday's position over today's move."""
    return sizing.multiplier * (price_now - price_prev) * held_suggested


@dataclass
class SpreadPath:
    """Per-day estimation record from one pass over the returns.

    ``active`` marks rows where the estimator actually ran; during feature
    warm-up the residual falls back to the raw target return and the
    coefficient row stays NaN.  ``innovations`` and ``forecast_vars`` are
    filled only by the Kalman engine.
    """

    spreads: NDArray[np.float64]
    betas: NDArray[np.float64]
    innovations: NDArray[np.float64]
    forecast_vars: NDArray[np.float64]
    active: NDArray[np.bool_]

    def __len__(self) -> int:
        return len(self.spreads)


@dataclass
class Regressors:
    """Regressor rows of one feature pass over the returns.

    ``values`` row ``i`` is what the regression consumes at return row
    ``i``; ``ready`` marks the rows where it exists (in ``svd`` mode, rows
    after the tracker has seeded all its components).  Nothing here depends
    on the smoothing weight, so one pass serves a whole delta grid.
    """

    values: NDArray[np.float64]
    ready: NDArray[np.bool_]


def compute_features(
    returns: ReturnMatrix, features: FeatureConfig = FeatureConfig()
) -> Regressors:
    """Run the feature pipeline once over the return rows.

    ``raw`` mode passes ``returns.features`` through without a copy, so it
    adds no memory however wide the market.  ``svd`` mode updates the
    tracker with each row, then projects that row on the updated
    components.
    """
    n, n_raw = returns.features.shape
    if features.mode == "raw":
        return Regressors(values=returns.features, ready=np.ones(n, dtype=bool))
    if features.k > n_raw:
        raise ValueError(f"k={features.k} factor scores from {n_raw} streams")
    tracker = EigenTracker(n_raw, features.k, amnesia=features.amnesia)
    values = np.full((n, features.k), np.nan)
    ready = np.zeros(n, dtype=bool)
    for i, raw in enumerate(returns.features):
        tracker.update(raw)
        if tracker.ready:
            values[i] = tracker.project(raw)
            ready[i] = True
    return Regressors(values=values, ready=ready)


def estimate_spreads(
    returns: ReturnMatrix,
    estimator: EstimatorConfig,
    features: FeatureConfig | Regressors = FeatureConfig(),
) -> SpreadPath:
    """Run the regression over the return rows and record the residuals.

    ``features`` is either a feature configuration, run here, or the
    :class:`Regressors` of an earlier :func:`compute_features` pass over
    the same returns.  Each row's estimator update uses that row's
    regressors and target return; the residual uses the just-updated
    coefficients.  Everything consumed at row ``i`` is known at row ``i``,
    so downstream trading sees no future data.  Rows without regressors
    keep the raw target return as their residual.
    """
    if isinstance(features, FeatureConfig):
        features = compute_features(returns, features)
    n = len(returns)
    if features.ready.shape != (n,) or len(features.values) != n:
        raise ValueError(f"regressors must have {n} rows, one per return row")
    dim = features.values.shape[1]

    smoothing = Smoothing(estimator.delta)
    if estimator.engine == "kalman":
        engine = KalmanEstimator.from_smoothing(
            dim, smoothing, veps=estimator.veps, prior_scale=estimator.prior_scale
        )
    else:
        engine = FlsEstimator(dim, smoothing, s0_scale=1.0 / estimator.prior_scale)

    spreads = np.empty(n)
    betas = np.full((n, dim), np.nan)
    innovations = np.full(n, np.nan)
    forecast_vars = np.full(n, np.nan)

    for i in range(n):
        a = float(returns.target[i])
        if not features.ready[i]:
            spreads[i] = a
            continue
        f = features.values[i]
        if isinstance(engine, KalmanEstimator):
            diag = engine.update(f, a)
            innovations[i] = diag.innovation
            forecast_vars[i] = diag.forecast_var
            beta = engine.beta
        else:
            beta = engine.update(f, a)
        betas[i] = beta
        spreads[i] = a - float(f @ beta)

    return SpreadPath(
        spreads=spreads,
        betas=betas,
        innovations=innovations,
        forecast_vars=forecast_vars,
        active=features.ready.copy(),
    )


@dataclass
class TradeLedger:
    """Day-by-day record of one backtest.

    ``position`` is the real-valued suggestion; ``order`` the integer
    contracts actually traded that day.  ``pnl`` applies the previous day's
    suggestion to the day's price move, minus any per-contract cost on the
    day's order.
    """

    dates: list
    spread: NDArray[np.float64]
    signal: NDArray[np.int64]
    position: NDArray[np.float64]
    order: NDArray[np.int64]
    pnl: NDArray[np.float64]
    index_price: NDArray[np.float64]

    def __post_init__(self) -> None:
        n = len(self.dates)
        for name in ("spread", "signal", "position", "order", "pnl", "index_price"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"ledger column {name} misaligned")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def cum_pnl(self) -> NDArray[np.float64]:
        return np.cumsum(self.pnl)


def simulate_trading(
    dates,
    spreads,
    index_prices,
    sizing: SizingConfig = SizingConfig(),
    warmup: int = 0,
    rule: str = "mean-reversion",
    active=None,
) -> TradeLedger:
    """Fold residuals and prices into a trade ledger.

    ``index_prices`` has one more entry than ``spreads``: the leading price
    anchors the first day's move.  Rows before ``warmup`` (and rows flagged
    inactive) are forced flat.  ``rule`` is ``mean-reversion`` (trade
    against the residual) or ``buy-hold`` (always long, the baseline).
    A price so low that the day's order no longer fits in an int64 contract
    count raises :class:`~flexls.ingest.DataError`.
    """
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule!r}")
    spreads = np.asarray(spreads, dtype=float)
    index_prices = np.asarray(index_prices, dtype=float)
    n = len(spreads)
    if len(dates) != n:
        raise ValueError(f"{len(dates)} dates for {n} spread rows")
    if index_prices.shape != (n + 1,):
        raise ValueError(
            f"index_prices must have length {n + 1} (one leading anchor price), "
            f"got {len(index_prices)}"
        )
    if not (warmup >= 0):
        raise ValueError("warmup must be >= 0")

    signals = np.zeros(n, dtype=np.int64)
    positions = np.zeros(n)
    orders = np.zeros(n, dtype=np.int64)
    pnl = np.zeros(n)

    held = 0            # integer contracts on the book
    prev_suggested = 0.0
    for i in range(n):
        if i < warmup or (active is not None and not active[i]):
            sig = 0
        elif rule == "buy-hold":
            sig = 1
        else:
            sig = signal(float(spreads[i]))
        price = float(index_prices[i + 1])
        suggested = position(sig, price, sizing)
        try:
            traded = order_size(suggested, held)
            orders[i] = traded
        except OverflowError:
            raise DataError(
                f"index price {price!r} on {dates[i]} sizes an order of more "
                "contracts than an int64 holds"
            ) from None
        held += traded
        day = daily_pnl(price, float(index_prices[i]), prev_suggested, sizing)
        if sizing.cost_per_contract:
            day -= sizing.cost_per_contract * abs(traded)
        signals[i] = sig
        positions[i] = suggested
        pnl[i] = day
        prev_suggested = suggested

    return TradeLedger(
        dates=list(dates),
        spread=spreads.copy(),
        signal=signals,
        position=positions,
        order=orders,
        pnl=pnl,
        index_price=index_prices[1:].copy(),
    )


def run_backtest(
    returns: ReturnMatrix,
    index_prices,
    estimator: EstimatorConfig,
    features: FeatureConfig | Regressors = FeatureConfig(),
    sizing: SizingConfig = SizingConfig(),
    warmup: int = 0,
    rule: str = "mean-reversion",
) -> tuple[TradeLedger, SpreadPath]:
    """Estimate residuals, then trade them.  Returns (ledger, spread path).

    ``index_prices`` must align with the return rows plus a leading anchor
    price (length ``len(returns) + 1``).  ``features`` is passed to
    :func:`estimate_spreads`: give the :class:`Regressors` of one
    :func:`compute_features` pass to run several deltas over one dataset.
    """
    path = estimate_spreads(returns, estimator, features)
    ledger = simulate_trading(
        returns.dates,
        path.spreads,
        index_prices,
        sizing=sizing,
        warmup=warmup,
        rule=rule,
        active=path.active,
    )
    return ledger, path


def write_ledger_csv(path, ledger: TradeLedger) -> None:
    """Write a ledger as CSV with a running cumulative profit column.

    Floats carry 17 significant digits (the text of ``util.fmt_g17``), so
    reruns are byte-identical and lossless.
    """
    header = "date,spread,signal,position,order,pnl,cum_pnl,index_price\n"
    row_fmt = "%s,%.17g,%d,%.17g,%d,%.17g,%.17g,%.17g\n"
    rows = zip(
        [day.isoformat() for day in ledger.dates],
        ledger.spread.tolist(),
        ledger.signal.tolist(),
        ledger.position.tolist(),
        ledger.order.tolist(),
        ledger.pnl.tolist(),
        ledger.cum_pnl.tolist(),
        ledger.index_price.tolist(),
    )
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for row in rows:
            fh.write(row_fmt % row)
