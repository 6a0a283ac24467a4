"""Performance metrics over a trade ledger.

``summarize`` splits the ledger at a training boundary: residual fit is
reported on both sides (in- and out-of-sample mean squared error), while the
financial fields describe the evaluation rows only, since nothing trades
during training.  Percentages are relative to the fixed daily endowment, not
a compounding equity curve: the strategy commits the same notional every
day, so a constant base is the honest denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .strategy import TradeLedger
from .util import write_table

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class BacktestReport:
    """Evaluation-period summary of one backtest.

    ``sharpe`` is the ratio of annualized return to annualized volatility;
    it is ``None`` when the volatility is zero (an entirely flat book has
    no risk-adjusted reading).  ``pct_gain``/``pct_loss`` average the
    positive and negative daily outcomes; ``pct_win``/``pct_lose`` count
    profitable and losing days among days with a position on.
    """

    pct_gain: float
    pct_loss: float
    mdd: float
    pct_win: float
    pct_lose: float
    ann_return: float
    ann_vol: float
    sharpe: float | None
    mse_in: float
    mse_out: float


def sharpe(returns) -> float:
    """Mean over sample standard deviation of a return series."""
    arr = np.asarray(returns, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise ValueError("need a 1-d series of at least two returns")
    sd = float(np.std(arr, ddof=1))
    if sd == 0.0 or not math.isfinite(sd):
        raise ValueError("degenerate return series: zero or non-finite spread")
    return float(np.mean(arr)) / sd


def max_drawdown(cum_returns, base: float) -> float:
    """Largest peak-to-trough drop of a cumulative curve, as % of ``base``.

    The starting wealth (zero cumulative return) counts as the first peak,
    so an immediate loss registers.  Shift-invariant in the curve and zero
    for monotone growth.
    """
    if not (base > 0.0):
        raise ValueError(f"base must be positive, got {base}")
    cum = np.asarray(cum_returns, dtype=float)
    if cum.ndim != 1 or len(cum) == 0:
        raise ValueError("need a non-empty 1-d cumulative series")
    peaks = np.maximum.accumulate(np.concatenate(([0.0], cum)))
    worst = float(np.max(peaks - np.concatenate(([0.0], cum))))
    return worst / base * 100.0


def mse_split(residuals, split: int) -> tuple[float, float]:
    """Mean squared residual before and from the split index."""
    arr = np.asarray(residuals, dtype=float)
    n = len(arr)
    if split < 1:
        raise ValueError(f"split {split} leaves the in-sample side empty")
    if split >= n:
        raise ValueError(f"split {split} of {n} leaves the out-sample side empty")
    return float(np.mean(arr[:split] ** 2)), float(np.mean(arr[split:] ** 2))


def summarize(
    ledger: TradeLedger,
    endowment: float,
    split: int,
    trading_days_per_year: int = TRADING_DAYS_PER_YEAR,
) -> BacktestReport:
    """Report on the evaluation rows ``[split:]`` of a ledger.

    ``split`` is the training length: residual MSE is reported on both
    sides, every financial field on the evaluation side only.  The
    drawdown restarts its cumulative curve at the split.
    """
    if not (endowment > 0.0):
        raise ValueError(f"endowment must be positive, got {endowment}")
    if trading_days_per_year < 1:
        raise ValueError("trading_days_per_year must be >= 1")
    mse_in, mse_out = mse_split(ledger.spread, split)

    pnl = np.asarray(ledger.pnl[split:], dtype=float)
    pos = np.asarray(ledger.position[split:], dtype=float)
    m = len(pnl)

    gains = pnl[pnl > 0.0]
    losses = pnl[pnl < 0.0]
    pct_gain = float(np.mean(gains)) / endowment * 100.0 if len(gains) else 0.0
    pct_loss = float(np.mean(losses)) / endowment * 100.0 if len(losses) else 0.0

    mdd = max_drawdown(np.cumsum(pnl), endowment)

    on = pos != 0.0
    n_on = int(np.sum(on))
    wins = int(np.sum(on & (pnl > 0.0)))
    loses = int(np.sum(on & (pnl < 0.0)))
    pct_win = 100.0 * wins / n_on if n_on else 0.0
    pct_lose = 100.0 * loses / n_on if n_on else 0.0

    ann_return = float(np.mean(pnl)) * trading_days_per_year / endowment * 100.0
    ann_vol = (
        float(np.std(pnl, ddof=1)) * math.sqrt(trading_days_per_year)
        / endowment
        * 100.0
        if m >= 2
        else 0.0
    )
    ratio = ann_return / ann_vol if ann_vol > 0.0 else None

    return BacktestReport(
        pct_gain=pct_gain,
        pct_loss=pct_loss,
        mdd=mdd,
        pct_win=pct_win,
        pct_lose=pct_lose,
        ann_return=ann_return,
        ann_vol=ann_vol,
        sharpe=ratio,
        mse_in=mse_in,
        mse_out=mse_out,
    )


_REPORT_COLUMNS = [f.name for f in fields(BacktestReport)]


def write_report_csv(path, rows: list[tuple[float, BacktestReport]]) -> None:
    """Write one report row per smoothing value: ``delta`` then each field.

    An absent Sharpe is written as ``nan``.
    """
    header = ["delta"] + _REPORT_COLUMNS
    # dtype=float turns an absent Sharpe (None) into NaN.
    table = np.array(
        [[delta] + [getattr(report, name) for name in _REPORT_COLUMNS]
         for delta, report in rows],
        dtype=float,
    ).reshape(len(rows), len(header))
    write_table(path, header, table.T)


def format_report_table(rows: list[tuple[float, BacktestReport]]) -> str:
    """Human-readable fixed-width table of reports keyed by delta."""
    header = ["delta"] + _REPORT_COLUMNS
    body = []
    for delta, report in rows:
        cells = [f"{delta:g}"]
        for name in _REPORT_COLUMNS:
            value = getattr(report, name)
            if value is None:
                cells.append("-")
            elif name.startswith("mse"):
                cells.append(f"{value:.3e}")
            else:
                cells.append(f"{value:.3f}")
        body.append(cells)
    widths = [
        max(len(header[j]), *(len(row[j]) for row in body)) if body else len(header[j])
        for j in range(len(header))
    ]
    lines = [
        "  ".join(h.rjust(widths[j]) for j, h in enumerate(header)),
        "  ".join("-" * widths[j] for j in range(len(header))),
    ]
    for row in body:
        lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)))
    return "\n".join(lines)
