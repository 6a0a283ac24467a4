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
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .eigentrack import EigenTracker
from .estimator import (
    DEFAULT_PRIOR_SCALE,
    KalmanEstimator,
    RejectedStep,
    Smoothing,
    filter_passes,
)
from .ingest import DataError, ReturnMatrix
from .util import write_table

RULES = ("mean-reversion", "buy-hold")
FEATURE_MODES = ("raw", "svd")


def _check_finite(config, name: str, positive: bool) -> None:
    """Raise ``ValueError`` unless the field is finite and > 0 (or >= 0)."""
    value = getattr(config, name)
    ok = value > 0.0 if positive else value >= 0.0
    if not (ok and math.isfinite(value)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


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
        _check_finite(self, "multiplier", positive=True)
        _check_finite(self, "endowment", positive=True)
        _check_finite(self, "cost_per_contract", positive=False)


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of the backtest's regression filter.

    The filter's observation noise is 1: another level ``c`` gives the
    coefficients of ``mu*c`` and ``prior_scale/c``, and ``c`` times the
    forecast variances, so it adds no setting.
    """

    delta: float
    prior_scale: float = DEFAULT_PRIOR_SCALE

    def __post_init__(self) -> None:
        Smoothing(self.delta)   # validates the range
        _check_finite(self, "prior_scale", positive=True)


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
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")
        _check_finite(self, "amnesia", positive=False)


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
    coefficient row stays NaN, as do that row's filter ``innovations`` and
    ``forecast_vars``.
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
    estimator: EstimatorConfig | Sequence[EstimatorConfig],
    features: FeatureConfig | Regressors = FeatureConfig(),
) -> SpreadPath | list[SpreadPath]:
    """Run the regression over the return rows and record the residuals.

    ``estimator`` is one configuration, which gives one :class:`SpreadPath`,
    or a grid of them, which gives a list of paths in grid order.
    ``features`` is either a feature configuration, run here, or the
    :class:`Regressors` of an earlier :func:`compute_features` pass over
    the same returns.  Each row's estimator update uses that row's
    regressors and target return; the residual uses the just-updated
    coefficients.  Everything consumed at row ``i`` is known at row ``i``,
    so downstream trading sees no future data.  Rows without regressors
    keep the raw target return as their residual.  A row the filter
    rejects raises :class:`~flexls.ingest.DataError` naming its date and
    the delta that rejected it.

    The grid runs in the passes :func:`~flexls.estimator.filter_passes`
    gives: narrow regressors step every configuration as one bank of
    filters, one :meth:`KalmanEstimator.update` per row for all of it;
    wider ones give each configuration a pass of its own.  A
    configuration's path is the same, bit for bit, either way, and
    whether it runs alone or in a grid.
    """
    grid = [estimator] if isinstance(estimator, EstimatorConfig) else list(estimator)
    if not grid:
        raise ValueError("need at least one estimator configuration")
    if isinstance(features, FeatureConfig):
        features = compute_features(returns, features)
    n = len(returns)
    if features.ready.shape != (n,) or len(features.values) != n:
        raise ValueError(f"regressors must have {n} rows, one per return row")
    dim = features.values.shape[1]

    # One row per return row and one column per configuration, so that a
    # row's results land in one contiguous write.
    D = len(grid)
    spreads = np.empty((n, D))
    spreads[:] = returns.target[:, None]
    betas = np.full((n, D, dim), np.nan)
    innovations = np.full((n, D), np.nan)
    forecast_vars = np.full((n, D), np.nan)

    for lo, hi in filter_passes(dim, D):
        smoothing = [Smoothing(config.delta) for config in grid[lo:hi]]
        scales = [config.prior_scale for config in grid[lo:hi]]
        # A pass of one configuration runs one filter: a bank of one
        # would pay for its stacks on every row.
        kf = KalmanEstimator.from_smoothing(
            dim,
            smoothing[0] if hi - lo == 1 else smoothing,
            prior_scale=scales[0] if hi - lo == 1 else scales,
        )
        s, b, e, q = (
            out[:, lo:hi] for out in (spreads, betas, innovations, forecast_vars)
        )
        for i in np.flatnonzero(features.ready):
            f = features.values[i]
            try:
                diag = kf.update(f, returns.target[i])
            except RejectedStep as exc:
                # A bank names its rejecting filter, unless all of them
                # reject the row; a pass of one filter is that filter.
                d = exc.filter if hi - lo > 1 else 0
                at = "" if d is None else f" at delta {grid[lo + d].delta!r}"
                raise DataError(
                    f"regression update on {returns.dates[i]} rejected{at}: {exc}"
                ) from None
            e[i] = diag.innovation
            q[i] = diag.forecast_var
            b[i] = kf.beta
            # Each filter's fit is its own dot product, as one filter's is.
            s[i] -= (kf.beta[..., None, :] @ f)[..., 0]
        del kf      # the next pass's covariance replaces it, not joins it

    paths = [
        SpreadPath(
            spreads=spreads[:, d],
            betas=betas[:, d],
            innovations=innovations[:, d],
            forecast_vars=forecast_vars[:, d],
            active=features.ready.copy(),
        )
        for d in range(D)
    ]
    return paths[0] if isinstance(estimator, EstimatorConfig) else paths


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
    estimator: EstimatorConfig | Sequence[EstimatorConfig],
    features: FeatureConfig | Regressors = FeatureConfig(),
    sizing: SizingConfig = SizingConfig(),
    warmup: int = 0,
    rule: str = "mean-reversion",
):
    """Estimate residuals, then trade them.  Returns (ledger, spread path),
    or a list of such pairs, in grid order, for a grid of configurations.

    ``index_prices`` must align with the return rows plus a leading anchor
    price (length ``len(returns) + 1``).  ``estimator`` and ``features``
    are passed to :func:`estimate_spreads`: give a grid and the
    :class:`Regressors` of one :func:`compute_features` pass to run several
    deltas over one dataset in one call, which steps them together when
    the regressors are narrow (:func:`~flexls.estimator.filter_passes`).
    """
    paths = estimate_spreads(returns, estimator, features)
    single = isinstance(paths, SpreadPath)
    results = [
        (
            simulate_trading(
                returns.dates,
                path.spreads,
                index_prices,
                sizing=sizing,
                warmup=warmup,
                rule=rule,
                active=path.active,
            ),
            path,
        )
        for path in ([paths] if single else paths)
    ]
    return results[0] if single else results


def write_ledger_csv(path, ledger: TradeLedger) -> None:
    """Write a ledger as CSV with a running cumulative profit column.

    Written by :func:`flexls.util.write_table`, so reruns are
    byte-identical and lossless.
    """
    names = ["spread", "signal", "position", "order", "pnl", "cum_pnl", "index_price"]
    columns = [getattr(ledger, name) for name in names]
    dates = [day.isoformat() for day in ledger.dates]
    write_table(path, ["date", *names], [dates, *columns])
