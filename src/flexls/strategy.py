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

import collections
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .eigentrack import EigenTracker
from .estimator import DEFAULT_PRIOR_SCALE, KalmanEstimator, RejectedStep, Smoothing
from .ingest import DataError, ReturnMatrix
from .util import block_rows, iso_dates, write_table

RULES = ("mean-reversion", "buy-hold")     # the first is the default
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
    grid: Sequence[EstimatorConfig],
    regressors: Regressors,
    write_coefficients=None,
) -> NDArray[np.float64]:
    """Residuals of each configuration of ``grid`` over the return rows:
    an ``(n, len(grid))`` array, one column per configuration in grid order.

    ``regressors`` is a :func:`compute_features` pass over the same returns.
    Each row's update uses that row's regressors and target return, and its
    residual the just-updated coefficients, so trading on it sees no future
    data.  Rows without regressors keep the raw target return.  A row the
    filter rejects raises :class:`~flexls.ingest.DataError` naming its date
    and delta.

    Each configuration's filter runs in a pass of its own, in grid order,
    so its outputs are the same, bit for bit, alone or in any grid.
    Nothing keeps the coefficient rows: ``write_coefficients(index, p,
    rows)``, if given, is called once per configuration, and ``rows``
    yields that configuration's blocks ``(betas, e, Q)`` (NaN where no
    regressors exist) of the rows
    :func:`~flexls.estimator.write_coefficient_csv` formats at a time, as
    the filter steps them.  A block is valid until the next one is pulled:
    the pass refills one buffer.  Rows it leaves unread are still stepped.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("need at least one estimator configuration")
    n = len(returns)
    if regressors.ready.shape != (n,) or len(regressors.values) != n:
        raise ValueError(f"regressors must have {n} rows, one per return row")
    dim = regressors.values.shape[1]

    # One row per return row and one column per configuration, so that a
    # row's residuals land in one contiguous write.
    spreads = np.empty((n, len(grid)))
    spreads[:] = returns.target[:, None]

    for d, config in enumerate(grid):
        rows = _filter_pass(returns, regressors, config, spreads[:, d])
        if write_coefficients is not None:
            write_coefficients(d, dim, rows)
        # Step the rows left unread, binding no block: a loop variable would
        # keep this pass's buffer alive into the next.
        collections.deque(rows, maxlen=0)
    return spreads


def _filter_pass(returns, regressors, config, spreads):
    """Step the filter of ``config`` over the return rows, subtracting each
    row's fit from ``spreads``, its ``(n,)`` column.  Yields, for each
    writer block of rows, the ``(betas, e, Q)`` block, in one buffer
    refilled for the next.

    Each run of rows with regressors in a writer block steps in one
    :meth:`KalmanEstimator.update_block` call.
    """
    dim = regressors.values.shape[1]
    kf = KalmanEstimator.from_smoothing(
        dim, Smoothing(config.delta), prior_scale=config.prior_scale
    )
    step = block_rows(dim + 3)       # a coefficient file's t, betas, e and Q
    betas = np.empty((step, dim))
    e, q = np.empty((2, step))
    for start in range(0, len(returns), step):
        # This writer block's rows, indexed from 0.
        rows = slice(start, start + step)
        X, Y, s = regressors.values[rows], returns.target[rows], spreads[rows]
        ready, k = regressors.ready[rows], len(X)
        betas.fill(np.nan)
        e.fill(np.nan)
        q.fill(np.nan)
        i = 0
        while i < k:
            if not ready[i]:
                i += 1
                continue
            end = i + 1
            while end < k and ready[end]:
                end += 1
            t = kf.t
            try:
                e[i:end], q[i:end] = kf.update_block(X[i:end], Y[i:end], betas[i:end])
            except RejectedStep as exc:
                raise DataError(
                    f"regression update on {returns.dates[start + i + kf.t - t]} "
                    f"rejected at delta {config.delta!r}: {exc}"
                ) from None
            s[i:end] -= np.einsum("ij,ij->i", X[i:end], betas[i:end])
            i = end
        yield betas[:k], e[:k], q[:k]


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


def _trading_inputs(n: int, index_prices, warmup: int, rule: str):
    """``index_prices`` as floats, once it and ``warmup`` and ``rule`` are
    checked for ``n`` rows of residuals; raises ``ValueError`` otherwise."""
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule!r}")
    index_prices = np.asarray(index_prices, dtype=float)
    if index_prices.shape != (n + 1,):
        raise ValueError(
            f"index_prices must have length {n + 1} (one leading anchor price), "
            f"got {len(index_prices)}"
        )
    if not (warmup >= 0):
        raise ValueError("warmup must be >= 0")
    return index_prices


def simulate_trading(
    dates,
    spreads,
    index_prices,
    sizing: SizingConfig = SizingConfig(),
    warmup: int = 0,
    rule: str = RULES[0],
    active=None,
) -> TradeLedger:
    """Fold residuals and prices into a trade ledger.

    ``index_prices`` has one more entry than ``spreads``: the leading price
    anchors the first day's move.  Rows before ``warmup``, and rows that
    ``active`` (one flag per row, if given) marks inactive, are forced
    flat.  ``rule`` is ``mean-reversion`` (trade against the residual) or
    ``buy-hold`` (always long, the baseline).
    A price so low that the day's order no longer fits in an int64 contract
    count raises :class:`~flexls.ingest.DataError`.
    """
    spreads = np.asarray(spreads, dtype=float)
    n = len(spreads)
    if len(dates) != n:
        raise ValueError(f"{len(dates)} dates for {n} spread rows")
    index_prices = _trading_inputs(n, index_prices, warmup, rule)
    if active is not None and np.shape(active) != (n,):
        raise ValueError(f"active must have shape ({n},), got {np.shape(active)}")

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
    grid: Sequence[EstimatorConfig],
    regressors: Regressors,
    sizing: SizingConfig = SizingConfig(),
    warmup: int = 0,
    rule: str = RULES[0],
    write_coefficients=None,
) -> list[TradeLedger]:
    """Trade the residuals of :func:`estimate_spreads`, which is given
    ``grid``, ``regressors`` and ``write_coefficients``: one ledger per
    configuration, in grid order, flat on rows without regressors.

    ``index_prices`` must align with the return rows plus a leading anchor
    price (length ``len(returns) + 1``).  It, ``warmup`` and ``rule`` are
    checked before the filter takes a step.
    """
    index_prices = _trading_inputs(len(returns), index_prices, warmup, rule)
    spreads = estimate_spreads(returns, grid, regressors, write_coefficients)
    return [
        simulate_trading(returns.dates, column, index_prices, sizing, warmup, rule,
                         active=regressors.ready)
        for column in spreads.T
    ]


def write_ledger_csv(path, ledger: TradeLedger, dates=None) -> None:
    """Write a ledger as CSV with a running cumulative profit column.

    ``dates``, if given, is the ledger's date column already spelled by
    :func:`flexls.util.iso_dates`: the ledgers of one grid share their
    dates, so a run spells them once.  Written by
    :func:`flexls.util.write_table`, so reruns are byte-identical and
    lossless.
    """
    if dates is None:
        dates = iso_dates(ledger.dates)
    names = ["spread", "signal", "position", "order", "pnl", "cum_pnl", "index_price"]
    columns = [getattr(ledger, name) for name in names]
    write_table(path, ["date", *names], [dates, *columns])
