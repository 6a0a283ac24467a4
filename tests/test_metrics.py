"""Tests for the performance metrics, anchored on hand-computed fixtures."""

import datetime as dt
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from flexls.metrics import (
    BacktestReport,
    format_report_table,
    max_drawdown,
    mse_split,
    sharpe,
    summarize,
    write_report_csv,
)
from flexls.strategy import TradeLedger
from flexls.util import fmt_g17

from .test_strategy import SPECIAL_FLOATS


def make_ledger(pnl, positions, spreads):
    n = len(pnl)
    return TradeLedger(
        dates=[dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(n)],
        spread=np.asarray(spreads, dtype=float),
        signal=np.sign(np.asarray(positions)).astype(np.int64),
        position=np.asarray(positions, dtype=float),
        order=np.zeros(n, dtype=np.int64),
        pnl=np.asarray(pnl, dtype=float),
        index_price=np.full(n, 1400.0),
    )


class TestSharpe:
    def test_symmetric_series_scores_zero(self):
        assert sharpe([1.0, -1.0, 1.0, -1.0]) == 0.0

    def test_hand_case(self):
        assert sharpe([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="degenerate return series"):
            sharpe([2.0, 2.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            sharpe([1.0])

    def test_scale_invariant(self):
        rng = np.random.default_rng(41)
        r = rng.normal(size=100)
        assert sharpe(17.0 * r) == pytest.approx(sharpe(r))


class TestMaxDrawdown:
    def test_hand_case(self):
        # peaks 10, 10, 12; deepest drop 12 -> 3
        assert max_drawdown([0.0, 10.0, 5.0, 12.0, 3.0], base=100.0) == pytest.approx(9.0)

    def test_monotone_series_has_none(self):
        assert max_drawdown([1.0, 2.0, 3.0], base=100.0) == 0.0

    def test_single_point(self):
        assert max_drawdown([5.0], base=100.0) == 0.0

    def test_immediate_loss_counts_from_zero(self):
        # trading starts at cumulative zero, so a first-day loss is a drawdown
        assert max_drawdown([-5.0, -2.0], base=100.0) == pytest.approx(5.0)

    def test_shift_invariant_in_gains(self):
        # add a leading gain: drawdown measured peak-to-trough, unchanged
        a = max_drawdown([10.0, 4.0], base=100.0)
        b = max_drawdown([0.0, 10.0, 4.0], base=100.0)
        assert a == b == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_drawdown([1.0], base=0.0)
        with pytest.raises(ValueError):
            max_drawdown([], base=100.0)


class TestMseSplit:
    def test_hand_case(self):
        assert mse_split([1.0, 1.0, 2.0], split=2) == (1.0, 4.0)

    def test_all_zero(self):
        assert mse_split([0.0, 0.0, 0.0], split=1) == (0.0, 0.0)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            mse_split([1.0, 2.0], split=0)
        with pytest.raises(ValueError):
            mse_split([1.0, 2.0], split=2)


class TestSummarize:
    """Five-day fixture with every field worked out by hand.

    Split at 2: training rows carry spreads only; evaluation rows are
    pnl (0, 2000, -250) with positions (0, 5, 5).
    """

    PNL = [1000.0, -500.0, 0.0, 2000.0, -250.0]
    POSITIONS = [10.0, -10.0, 0.0, 5.0, 5.0]
    SPREADS = [0.01, -0.02, 0.005, -0.01, 0.004]
    W = 1e6

    def report(self):
        ledger = make_ledger(self.PNL, self.POSITIONS, self.SPREADS)
        return summarize(ledger, endowment=self.W, split=2)

    def test_gain_and_loss_means(self):
        rep = self.report()
        assert rep.pct_gain == pytest.approx(2000.0 / self.W * 100.0)     # 0.2
        assert rep.pct_loss == pytest.approx(-250.0 / self.W * 100.0)     # -0.025

    def test_drawdown_restarts_at_split(self):
        # eval cumulative: 0, 2000, 1750 -> deepest drop 250
        assert self.report().mdd == pytest.approx(250.0 / self.W * 100.0)

    def test_win_rates_count_only_days_with_position(self):
        rep = self.report()
        assert rep.pct_win == pytest.approx(50.0)
        assert rep.pct_lose == pytest.approx(50.0)

    def test_annualized_return(self):
        mean_daily = (0.0 + 2000.0 - 250.0) / 3.0
        expected = mean_daily * 252.0 / self.W * 100.0                    # 14.7
        assert self.report().ann_return == pytest.approx(expected)
        assert expected == pytest.approx(14.7)

    def test_annualized_volatility_and_sharpe(self):
        sd = float(np.std([0.0, 2000.0, -250.0], ddof=1))
        expected_vol = sd * math.sqrt(252.0) / self.W * 100.0
        rep = self.report()
        assert rep.ann_vol == pytest.approx(expected_vol)
        assert rep.sharpe == pytest.approx(rep.ann_return / expected_vol)

    def test_mse_sides(self):
        rep = self.report()
        assert rep.mse_in == pytest.approx((0.01**2 + 0.02**2) / 2.0)     # 2.5e-4
        assert rep.mse_out == pytest.approx(
            (0.005**2 + 0.01**2 + 0.004**2) / 3.0
        )                                                                  # 4.7e-5

    def test_flat_ledger_has_no_sharpe(self):
        ledger = make_ledger([0.0] * 5, [0.0] * 5, self.SPREADS)
        rep = summarize(ledger, endowment=self.W, split=2)
        assert rep.sharpe is None
        assert rep.pct_gain == 0.0 and rep.pct_loss == 0.0
        assert rep.pct_win == 0.0 and rep.pct_lose == 0.0
        assert rep.mdd == 0.0 and rep.ann_vol == 0.0

    def test_monetary_scale(self):
        base = self.report()
        ledger = make_ledger(
            [3.0 * v for v in self.PNL], self.POSITIONS, self.SPREADS
        )
        scaled = summarize(ledger, endowment=self.W, split=2)
        assert scaled.sharpe == pytest.approx(base.sharpe)
        assert scaled.ann_return == pytest.approx(3.0 * base.ann_return)
        assert scaled.ann_vol == pytest.approx(3.0 * base.ann_vol)
        assert scaled.mdd == pytest.approx(3.0 * base.mdd)
        assert scaled.pct_gain == pytest.approx(3.0 * base.pct_gain)

    def test_rerun_deterministic(self):
        assert self.report() == self.report()

    def test_validation(self):
        ledger = make_ledger(self.PNL, self.POSITIONS, self.SPREADS)
        with pytest.raises(ValueError):
            summarize(ledger, endowment=0.0, split=2)
        with pytest.raises(ValueError):
            summarize(ledger, endowment=self.W, split=5)
        with pytest.raises(ValueError):
            summarize(ledger, endowment=self.W, split=2, trading_days_per_year=0)


class TestReportOutput:
    def rows(self):
        ledger = make_ledger(
            TestSummarize.PNL, TestSummarize.POSITIONS, TestSummarize.SPREADS
        )
        rep = summarize(ledger, endowment=1e6, split=2)
        flat = summarize(
            make_ledger([0.0] * 5, [0.0] * 5, TestSummarize.SPREADS),
            endowment=1e6,
            split=2,
        )
        return [(0.5, rep), (0.9, flat)]

    def test_csv_layout_and_values(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(out, self.rows())
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "delta,pct_gain,pct_loss,mdd,pct_win,pct_lose,"
            "ann_return,ann_vol,sharpe,mse_in,mse_out"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == pytest.approx(0.2)
        # absent sharpe serialized as nan
        assert math.isnan(float(lines[2].split(",")[8]))

    def test_special_values_match_the_per_cell_formatter(self, tmp_path):
        names = [f.name for f in fields(BacktestReport)]
        rows = [
            (delta, BacktestReport(**dict(zip(names, np.roll(SPECIAL_FLOATS, i)))))
            for i, delta in enumerate(SPECIAL_FLOATS)
        ]
        rows.append((0.5, replace(rows[0][1], sharpe=None)))
        out = tmp_path / "report.csv"
        write_report_csv(out, rows)

        lines = [",".join(["delta", *names])]
        for delta, report in rows:
            values = [getattr(report, name) for name in names]
            lines.append(",".join(
                fmt_g17(math.nan if v is None else v) for v in [delta, *values]
            ))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_table_renders_every_row(self):
        text = format_report_table(self.rows())
        lines = text.splitlines()
        assert lines[0].split()[0] == "delta"
        assert len(lines) == 4
        assert "-" in lines[3].split()    # missing sharpe placeholder

    def test_report_is_frozen(self):
        rep = self.rows()[0][1]
        assert isinstance(rep, BacktestReport)
        with pytest.raises(AttributeError):
            rep.mdd = 1.0
