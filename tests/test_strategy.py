"""Tests for the trading layer: signals, sizing, orders and the ledger."""

import datetime as dt

import numpy as np
import pytest

from flexls.estimator import KalmanEstimator, Smoothing
from flexls.ingest import DataError, to_log_returns
from flexls.strategy import (
    EstimatorConfig,
    FeatureConfig,
    SizingConfig,
    TradeLedger,
    compute_features,
    daily_pnl,
    estimate_spreads,
    order_size,
    position,
    run_backtest,
    signal,
    simulate_trading,
    write_ledger_csv,
)
from flexls.synth import MarketConfig, gen_market
from flexls.util import fmt_g17


# Floats whose text is easy to get wrong: NaN, both infinities, negative
# zero, subnormals, the smallest normal and the largest finite double.
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308,
                  -1.5e-310, 1.7976931348623157e308, 0.1, -123456.789]


def make_market(seed=0, **kwargs):
    table, _ = gen_market(MarketConfig(seed=seed, **kwargs))
    index_prices = table.prices[:, 0].copy()   # the returns overwrite the prices
    return to_log_returns(table), index_prices


class TestPureFunctions:
    def test_signal_fades_the_residual(self):
        assert signal(0.008) == -1
        assert signal(-0.003) == 1
        assert signal(0.0) == 0

    def test_signal_rejects_nan(self):
        with pytest.raises(ValueError):
            signal(float("nan"))

    def test_position_from_endowment_and_contract_value(self):
        sizing = SizingConfig(multiplier=250.0, endowment=1e8)
        assert position(1, 1400.0, sizing) == pytest.approx(1e8 / (250.0 * 1400.0))
        assert position(0, 1400.0, sizing) == 0.0
        assert position(-1, 2000.0, sizing) == pytest.approx(-200.0)

    def test_position_validates_inputs(self):
        sizing = SizingConfig()
        with pytest.raises(ValueError):
            position(2, 1400.0, sizing)
        with pytest.raises(ValueError):
            position(1, 0.0, sizing)

    def test_order_rounds_half_away_from_zero(self):
        assert order_size(0.4, 0) == 0
        assert order_size(0.6, 0) == 1
        assert order_size(0.5, 0) == 1
        assert order_size(-0.5, 0) == -1
        assert order_size(2857.14, -2857) == 5714
        assert order_size(7.0, 7) == 0

    def test_order_is_odd_symmetric(self):
        for v in np.linspace(-3.0, 3.0, 61):
            assert order_size(-v, 0) == -order_size(v, 0)

    def test_daily_pnl_hand_cases(self):
        sizing = SizingConfig(multiplier=250.0)
        assert daily_pnl(1400.0, 1402.0, 10.0, sizing) == -5000.0
        assert daily_pnl(1400.0, 1402.0, -10.0, sizing) == 5000.0
        assert daily_pnl(1400.0, 1402.0, 0.0, sizing) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SizingConfig(multiplier=0.0)
        with pytest.raises(ValueError):
            SizingConfig(endowment=-1.0)
        with pytest.raises(ValueError):
            SizingConfig(cost_per_contract=-0.1)
        with pytest.raises(ValueError):
            EstimatorConfig(delta=1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(delta=0.5, prior_scale=0.0)
        with pytest.raises(ValueError):
            FeatureConfig(mode="pca")
        with pytest.raises(ValueError):
            FeatureConfig(mode="svd", k=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: EstimatorConfig(delta=0.5, prior_scale=v),
            lambda v: SizingConfig(multiplier=v),
            lambda v: SizingConfig(endowment=v),
            lambda v: SizingConfig(cost_per_contract=v),
            lambda v: FeatureConfig(mode="svd", amnesia=v),
        ],
        ids=["prior_scale", "multiplier", "endowment", "cost_per_contract",
             "amnesia"],
    )
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_config_rejects_non_finite_values(self, make, value):
        with pytest.raises(ValueError, match="must be finite"):
            make(value)


class TestEstimateSpreads:
    def test_raw_mode_runs_every_row(self):
        returns, _ = make_market(seed=1, steps=120)
        path = estimate_spreads(returns, EstimatorConfig(delta=0.5))
        assert len(path) == len(returns)
        assert path.active.all()
        assert np.all(np.isfinite(path.spreads))
        assert path.betas.shape == (len(returns), returns.features.shape[1])

    def test_spread_uses_coefficients_after_the_update(self):
        returns, _ = make_market(seed=2, steps=80)
        path = estimate_spreads(returns, EstimatorConfig(delta=0.5))
        i = 40
        expected = returns.target[i] - float(
            returns.features[i] @ path.betas[i]
        )
        assert path.spreads[i] == pytest.approx(expected, abs=1e-15)

    def test_kalman_engine_records_diagnostics(self):
        returns, _ = make_market(seed=3, steps=60)
        path = estimate_spreads(returns, EstimatorConfig(delta=0.5))
        assert np.all(np.isfinite(path.innovations))
        assert np.all(path.forecast_vars > 0.0)

    def test_svd_mode_warms_up_then_projects(self):
        returns, _ = make_market(seed=5, steps=100)
        path = estimate_spreads(
            returns,
            EstimatorConfig(delta=0.5),
            FeatureConfig(mode="svd", k=3),
        )
        assert not path.active[: 2].any()      # components seed one per row
        assert path.active[2:].all()
        assert path.betas.shape[1] == 3
        # warm-up rows fall back to the raw target return
        np.testing.assert_array_equal(path.spreads[:2], returns.target[:2])

    @pytest.mark.parametrize(
        "features", [FeatureConfig(), FeatureConfig(mode="svd", k=3)]
    )
    def test_precomputed_regressors_give_the_same_path(self, features):
        returns, _ = make_market(seed=7, steps=90)
        regressors = compute_features(returns, features)
        for delta in (0.2, 0.9):
            config = EstimatorConfig(delta=delta)
            once = estimate_spreads(returns, config, regressors)
            fresh = estimate_spreads(returns, config, features)
            for name in ("spreads", "betas", "innovations", "forecast_vars", "active"):
                np.testing.assert_array_equal(getattr(once, name), getattr(fresh, name))

    def test_raw_regressors_are_the_return_matrix(self):
        returns, _ = make_market(seed=8, steps=40)
        regressors = compute_features(returns)
        assert regressors.values is returns.features
        assert regressors.ready.all()

    def test_regressors_of_another_sample_rejected(self):
        returns, _ = make_market(seed=9, steps=40)
        shorter, _ = make_market(seed=9, steps=30)
        with pytest.raises(ValueError, match="one per return row"):
            estimate_spreads(
                returns, EstimatorConfig(delta=0.5), compute_features(shorter)
            )

    @pytest.mark.parametrize("delta", [0.2, 0.9, 0.98])
    def test_observation_noise_is_a_smoothing_and_prior_rescale(self, delta):
        # A filter with observation noise c gives the coefficients of the
        # unit-noise filter at mu*c and prior_scale/c, and c times its
        # forecast variances: the pipeline's filter loses nothing by
        # fixing the noise at 1.
        c = 3.7
        returns, _ = make_market(seed=12, steps=501)
        p = returns.features.shape[1]
        mu = Smoothing(delta).mu
        path = estimate_spreads(
            returns,
            EstimatorConfig(delta=1.0 / (1.0 + mu * c), prior_scale=1e6 / c),
        )
        noisy = KalmanEstimator(p, vomega=1.0 / mu, veps=c, prior_scale=1e6)
        betas = np.empty_like(path.betas)
        forecast_vars = np.empty(len(returns))
        for i in range(len(returns)):
            forecast_vars[i] = noisy.update(
                returns.features[i], returns.target[i]
            ).forecast_var
            betas[i] = noisy.beta
        assert len(returns) == 500 and p == 8
        row_error = np.abs(path.betas - betas).max(axis=1)
        assert (row_error / np.abs(betas).max(axis=1)).max() <= 1e-9
        np.testing.assert_allclose(forecast_vars, c * path.forecast_vars, rtol=1e-9)

    def test_svd_mode_rejects_too_many_components(self):
        returns, _ = make_market(seed=6, steps=60, n_streams=2)
        with pytest.raises(ValueError, match="factor scores from 2 streams"):
            estimate_spreads(
                returns,
                EstimatorConfig(delta=0.5),
                FeatureConfig(mode="svd", k=3),
            )


class TestSimulateTrading:
    def test_constant_prices_yield_zero_pnl(self):
        n = 20
        dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(n)]
        spreads = np.repeat([0.01, -0.01], 10)
        prices = np.full(n + 1, 1400.0)
        ledger = simulate_trading(dates, spreads, prices)
        np.testing.assert_array_equal(ledger.pnl, 0.0)
        assert np.any(ledger.position != 0.0)   # it does trade, just flat prices

    def test_pnl_uses_previous_day_position(self):
        dates = [dt.date(2001, 1, 1), dt.date(2001, 1, 2)]
        spreads = np.array([-0.01, -0.01])      # long both days
        prices = np.array([100.0, 100.0, 110.0])
        sizing = SizingConfig(multiplier=1.0, endowment=1000.0)
        ledger = simulate_trading(dates, spreads, prices, sizing=sizing)
        # day 1: no prior position, flat move anyway; day 2: held 10 through +10
        assert ledger.pnl[0] == 0.0
        assert ledger.pnl[1] == pytest.approx((110.0 - 100.0) * 10.0)

    def test_first_day_move_applies_to_no_position(self):
        dates = [dt.date(2001, 1, 1)]
        ledger = simulate_trading(dates, np.array([-0.01]), np.array([100.0, 120.0]))
        assert ledger.pnl[0] == 0.0           # position opened at day close

    def test_cumulative_pnl_is_running_sum(self):
        returns, prices = make_market(seed=7, steps=200)
        ledger, _ = run_backtest(
            returns, prices, EstimatorConfig(delta=0.5), warmup=20
        )
        acc = 0.0
        for i, v in enumerate(ledger.pnl):
            acc += v
            assert ledger.cum_pnl[i] == acc   # bitwise: same accumulation order

    def test_book_tracks_suggestion_within_half_contract(self):
        returns, prices = make_market(seed=8, steps=300)
        ledger, _ = run_backtest(
            returns, prices, EstimatorConfig(delta=0.5), warmup=10
        )
        book = np.cumsum(ledger.order)
        assert np.max(np.abs(book - ledger.position)) <= 0.5 + 1e-9

    def test_sign_antisymmetry(self):
        returns, prices = make_market(seed=9, steps=250)
        path = estimate_spreads(returns, EstimatorConfig(delta=0.5))
        base = simulate_trading(returns.dates, path.spreads, prices, warmup=5)
        flipped = simulate_trading(returns.dates, -path.spreads, prices, warmup=5)
        np.testing.assert_array_equal(flipped.position, -base.position)
        np.testing.assert_array_equal(flipped.pnl, -base.pnl)
        assert np.max(np.abs(flipped.order + base.order)) <= 1

    def test_no_lookahead(self):
        """Scrambling every row after day d leaves rows up to d unchanged."""
        returns, prices = make_market(seed=10, steps=150)
        path = estimate_spreads(returns, EstimatorConfig(delta=0.5))
        d = 70
        full = simulate_trading(returns.dates, path.spreads, prices, warmup=5)
        rng = np.random.default_rng(0)
        scrambled_spreads = path.spreads.copy()
        scrambled_spreads[d:] = rng.permutation(scrambled_spreads[d:])
        scrambled_prices = prices.copy()
        scrambled_prices[d + 1 :] = scrambled_prices[d + 1 :][::-1]
        other = simulate_trading(
            returns.dates, scrambled_spreads, scrambled_prices, warmup=5
        )
        np.testing.assert_array_equal(full.pnl[:d], other.pnl[:d])
        np.testing.assert_array_equal(full.position[:d], other.position[:d])
        np.testing.assert_array_equal(full.order[:d], other.order[:d])

    def test_warmup_rows_stay_flat(self):
        returns, prices = make_market(seed=11, steps=100)
        path = estimate_spreads(returns, EstimatorConfig(delta=0.5))
        ledger = simulate_trading(returns.dates, path.spreads, prices, warmup=30)
        np.testing.assert_array_equal(ledger.signal[:30], 0)
        np.testing.assert_array_equal(ledger.position[:30], 0.0)
        np.testing.assert_array_equal(ledger.pnl[:30], 0.0)
        assert np.any(ledger.signal[30:] != 0)

    def test_buy_hold_rule_is_always_long(self):
        returns, prices = make_market(seed=12, steps=100)
        ledger = simulate_trading(
            returns.dates,
            np.zeros(len(returns)),
            prices,
            warmup=10,
            rule="buy-hold",
        )
        np.testing.assert_array_equal(ledger.signal[10:], 1)
        np.testing.assert_array_equal(ledger.signal[:10], 0)

    def test_per_contract_cost_charged_on_orders(self):
        returns, prices = make_market(seed=13, steps=100)
        path = estimate_spreads(returns, EstimatorConfig(delta=0.5))
        free = simulate_trading(returns.dates, path.spreads, prices)
        sizing = SizingConfig(cost_per_contract=2.0)
        costly = simulate_trading(returns.dates, path.spreads, prices, sizing=sizing)
        expected = free.pnl - 2.0 * np.abs(costly.order)
        np.testing.assert_allclose(costly.pnl, expected, atol=1e-9)

    def test_inactive_rows_forced_flat(self):
        dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(4)]
        spreads = np.array([0.01, 0.01, 0.01, 0.01])
        prices = np.full(5, 100.0)
        active = np.array([False, True, False, True])
        ledger = simulate_trading(dates, spreads, prices, active=active)
        np.testing.assert_array_equal(ledger.signal, [0, -1, 0, -1])

    def test_input_validation(self):
        dates = [dt.date(2001, 1, 1)]
        with pytest.raises(ValueError, match="one leading anchor price"):
            simulate_trading(dates, np.array([0.1]), np.array([100.0]))
        with pytest.raises(ValueError, match="rule"):
            simulate_trading(
                dates, np.array([0.1]), np.array([100.0, 101.0]), rule="martingale"
            )
        with pytest.raises(ValueError, match="dates"):
            simulate_trading([], np.array([0.1]), np.array([100.0, 101.0]))

    def test_order_beyond_int64_is_data_error(self):
        # 1e8 / (250 * 1e-15) = 4e20 contracts, past the int64 range.
        dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(3)]
        prices = np.array([100.0, 90.0, 1e-15, 80.0])
        with pytest.raises(DataError, match=r"1e-15 on 2001-01-02"):
            simulate_trading(dates, np.zeros(3), prices, rule="buy-hold")

    def test_ledger_column_validation(self):
        with pytest.raises(ValueError, match="misaligned"):
            TradeLedger(
                dates=[dt.date(2001, 1, 1)],
                spread=np.zeros(2),
                signal=np.zeros(1, dtype=np.int64),
                position=np.zeros(1),
                order=np.zeros(1, dtype=np.int64),
                pnl=np.zeros(1),
                index_price=np.ones(1),
            )


class TestRunBacktest:
    def test_returns_aligned_ledger_and_path(self):
        returns, prices = make_market(seed=14, steps=150)
        ledger, path = run_backtest(
            returns, prices, EstimatorConfig(delta=0.5), warmup=20
        )
        assert len(ledger) == len(returns) == len(path)
        assert ledger.dates == returns.dates

    def test_misaligned_prices_rejected(self):
        returns, prices = make_market(seed=15, steps=100)
        with pytest.raises(ValueError):
            run_backtest(returns, prices[:-5], EstimatorConfig(delta=0.5))

    def test_prices_read_after_the_returns_are_rejected(self):
        # to_log_returns spends the table: a late read gets no rows, never
        # the returns written over the prices.
        table, _ = gen_market(MarketConfig(seed=15, steps=100))
        returns = to_log_returns(table)
        with pytest.raises(ValueError, match=r"must have length 100 .*, got 0$"):
            run_backtest(returns, table.prices[:, 0], EstimatorConfig(delta=0.5))


class TestLedgerCsv:
    def test_round_trip(self, tmp_path):
        returns, prices = make_market(seed=16, steps=60)
        ledger, _ = run_backtest(
            returns, prices, EstimatorConfig(delta=0.5), warmup=5
        )
        out = tmp_path / "ledger.csv"
        write_ledger_csv(out, ledger)
        lines = out.read_text().splitlines()
        assert lines[0] == "date,spread,signal,position,order,pnl,cum_pnl,index_price"
        assert len(lines) == len(ledger) + 1
        i = 30
        cells = lines[1 + i].split(",")
        assert cells[0] == ledger.dates[i].isoformat()
        assert float(cells[1]) == ledger.spread[i]
        assert int(cells[2]) == ledger.signal[i]
        assert float(cells[3]) == ledger.position[i]
        assert int(cells[4]) == ledger.order[i]
        assert float(cells[5]) == ledger.pnl[i]
        assert float(cells[6]) == ledger.cum_pnl[i]
        assert float(cells[7]) == ledger.index_price[i]

    def test_special_values_match_the_per_cell_formatter(self, tmp_path):
        floats = SPECIAL_FLOATS
        n = len(floats)
        ledger = TradeLedger(
            dates=[dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(n)],
            spread=np.array(floats),
            signal=np.array([-1, 0, 1] * 3 + [1], dtype=np.int64),
            position=np.roll(floats, 1),
            order=np.array([0, -1, 2**62, -(2**62), 7, 0, 3, -3, 1, 0]),
            pnl=np.roll(floats, 2),
            index_price=np.roll(floats, 3),
        )
        out = tmp_path / "ledger.csv"
        write_ledger_csv(out, ledger)

        cum = ledger.cum_pnl
        lines = ["date,spread,signal,position,order,pnl,cum_pnl,index_price"]
        for i in range(n):
            lines.append(",".join([
                ledger.dates[i].isoformat(),
                fmt_g17(ledger.spread[i]),
                str(int(ledger.signal[i])),
                fmt_g17(ledger.position[i]),
                str(int(ledger.order[i])),
                fmt_g17(ledger.pnl[i]),
                fmt_g17(cum[i]),
                fmt_g17(ledger.index_price[i]),
            ]))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
