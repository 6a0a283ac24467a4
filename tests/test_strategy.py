"""Tests for the trading layer: signals, sizing, orders and the ledger."""

import datetime as dt
import re
import tracemalloc

import numpy as np
import pytest

from flexls.estimator import (
    _BLAS_MIN_P,
    KalmanEstimator,
    RejectedStep,
    Smoothing,
    write_coefficient_csv,
)
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
from flexls.util import BLOCK_CELLS, fmt_g17, iso_dates


# Floats whose text is easy to get wrong: NaN, both infinities, negative
# zero, subnormals, the smallest normal and the largest finite double.
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308,
                  -1.5e-310, 1.7976931348623157e308, 0.1, -123456.789]


def make_market(seed=0, **kwargs):
    table, _ = gen_market(MarketConfig(seed=seed, **kwargs))
    index_prices = table.prices[:, 0].copy()   # the returns overwrite the prices
    return to_log_returns(table), index_prices


def with_coefficients(returns, grid, regressors=None):
    """estimate_spreads over ``regressors`` (by default the raw returns),
    and each configuration's coefficient rows, innovations and forecast
    variances, each gathered whole from copies of the ``(betas, e, Q)``
    blocks the writer is handed: a block is valid until the next is pulled."""
    if regressors is None:
        regressors = compute_features(returns)
    blocks = {}

    def keep(d, p, rows):
        blocks[d] = [[column.copy() for column in block] for block in rows]

    spreads = estimate_spreads(returns, grid, regressors, keep)
    paths = [[np.concatenate(c) for c in zip(*blocks[d])] for d in sorted(blocks)]
    return spreads, paths


def spreads_of(returns, config, features=FeatureConfig()):
    """The residual column of ``config`` run as a grid of one."""
    regressors = compute_features(returns, features)
    return estimate_spreads(returns, [config], regressors)[:, 0]


def backtest(returns, prices, config, features=FeatureConfig(), **kwargs):
    """The ledger of ``config`` run as a grid of one."""
    regressors = compute_features(returns, features)
    (ledger,) = run_backtest(returns, prices, [config], regressors, **kwargs)
    return ledger


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
        regressors = compute_features(returns)
        spreads, [(betas, _, _)] = with_coefficients(
            returns, [EstimatorConfig(delta=0.5)], regressors
        )
        assert spreads.shape == (len(returns), 1)
        assert regressors.ready.all()
        assert np.all(np.isfinite(spreads))
        assert betas.shape == (len(returns), returns.features.shape[1])

    def test_spread_uses_coefficients_after_the_update(self):
        returns, _ = make_market(seed=2, steps=80)
        spreads, [(betas, _, _)] = with_coefficients(
            returns, [EstimatorConfig(delta=0.5)]
        )
        i = 40
        expected = returns.target[i] - float(returns.features[i] @ betas[i])
        assert spreads[i, 0] == pytest.approx(expected, abs=1e-15)

    def test_kalman_engine_records_diagnostics(self):
        returns, _ = make_market(seed=3, steps=60)
        _, [(_, innovations, forecast_vars)] = with_coefficients(
            returns, [EstimatorConfig(delta=0.5)]
        )
        assert np.all(np.isfinite(innovations))
        assert np.all(forecast_vars > 0.0)

    def test_svd_mode_warms_up_then_projects(self):
        returns, _ = make_market(seed=5, steps=100)
        regressors = compute_features(returns, FeatureConfig(mode="svd", k=3))
        spreads, [(betas, _, _)] = with_coefficients(
            returns, [EstimatorConfig(delta=0.5)], regressors
        )
        assert not regressors.ready[: 2].any()      # components seed one per row
        assert regressors.ready[2:].all()
        assert betas.shape == (len(returns), 3)
        assert np.isnan(betas[:2]).all() and np.isfinite(betas[2:]).all()
        # warm-up rows fall back to the raw target return
        np.testing.assert_array_equal(spreads[:2, 0], returns.target[:2])

    @pytest.mark.parametrize(
        "features", [FeatureConfig(), FeatureConfig(mode="svd", k=3)]
    )
    def test_precomputed_regressors_give_the_same_path(self, features):
        # One feature pass serves every delta: reusing it gives what a
        # fresh pass per delta gives.
        returns, _ = make_market(seed=7, steps=90)
        regressors = compute_features(returns, features)
        for delta in (0.2, 0.9):
            config = [EstimatorConfig(delta=delta)]
            fresh_regressors = compute_features(returns, features)
            once, [once_path] = with_coefficients(returns, config, regressors)
            fresh, [fresh_path] = with_coefficients(returns, config, fresh_regressors)
            np.testing.assert_array_equal(once, fresh)
            for a, b in zip(once_path, fresh_path):     # betas, e and Q
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(regressors.ready, fresh_regressors.ready)

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
                returns, [EstimatorConfig(delta=0.5)], compute_features(shorter)
            )

    @pytest.mark.parametrize("delta", [0.2, 0.9, 0.98])
    def test_observation_noise_is_a_smoothing_and_prior_rescale(self, delta):
        # A filter with observation noise c is the unit-noise filter fed
        # x/sqrt(c) and y/sqrt(c), whose forecast variances are 1/c times
        # the noisy filter's.  It gives the coefficients of the pipeline's
        # filter at mu*c and prior_scale/c, and the same forecast
        # variances: the pipeline's filter loses nothing by fixing the
        # noise at 1.
        c = 3.7
        returns, _ = make_market(seed=12, steps=501)
        p = returns.features.shape[1]
        mu = Smoothing(delta).mu
        _, [(path_betas, _, path_forecast_vars)] = with_coefficients(
            returns,
            [EstimatorConfig(delta=1.0 / (1.0 + mu * c), prior_scale=1e6 / c)],
        )
        scaled = KalmanEstimator(p, vomega=1.0 / mu, prior_scale=1e6)
        scale = 1.0 / np.sqrt(c)
        betas = np.empty_like(path_betas)
        forecast_vars = np.empty(len(returns))
        for i in range(len(returns)):
            forecast_vars[i] = scaled.update(
                returns.features[i] * scale, returns.target[i] * scale
            ).forecast_var
            betas[i] = scaled.beta
        assert len(returns) == 500 and p == 8
        row_error = np.abs(path_betas - betas).max(axis=1)
        assert (row_error / np.abs(betas).max(axis=1)).max() <= 1e-9
        np.testing.assert_allclose(forecast_vars, path_forecast_vars, rtol=1e-9)

    def test_svd_mode_rejects_too_many_components(self):
        returns, _ = make_market(seed=6, steps=60, n_streams=2)
        with pytest.raises(ValueError, match="factor scores from 2 streams"):
            compute_features(returns, FeatureConfig(mode="svd", k=3))


class TestGrid:
    """Each delta of a grid runs a pass of its own, stepping its rows in
    blocks; a delta's outputs never depend on the grid around it."""

    GRID = (0.2, 0.5, 0.9, 0.98)

    @pytest.mark.parametrize(
        "n_streams, features",
        [
            (8, FeatureConfig()),
            (8, FeatureConfig(mode="svd", k=3)),
            (12, FeatureConfig()),
            (_BLAS_MIN_P + 1, FeatureConfig()),
        ],
        ids=["raw-p8", "svd-k3", "raw-p12", "raw-p17"],
    )
    def test_a_delta_writes_the_same_bytes_alone_and_in_any_grid(
        self, tmp_path, n_streams, features
    ):
        returns, prices = make_market(seed=21, steps=160, n_streams=n_streams)
        regressors = compute_features(returns, features)

        def write_coefficients(d, p, rows):
            write_coefficient_csv(tmp_path / f"coefficients_{d}.csv", p, rows)

        def files(grid):
            ledgers = run_backtest(
                returns, prices, grid, regressors, warmup=20,
                write_coefficients=write_coefficients,
            )
            written = {}
            for d, (config, ledger) in enumerate(zip(grid, ledgers)):
                write_ledger_csv(tmp_path / "ledger.csv", ledger)
                written[config.delta] = [
                    (tmp_path / name).read_bytes()
                    for name in ("ledger.csv", f"coefficients_{d}.csv")
                ]
            return written

        grid = files([EstimatorConfig(d) for d in self.GRID])
        reordered = files([EstimatorConfig(d) for d in (0.9, 0.2, 0.98, 0.5)])
        for delta in self.GRID:
            alone = files([EstimatorConfig(delta)])[delta]
            assert grid[delta] == alone
            assert reordered[delta] == alone

    @pytest.mark.parametrize(
        "n_streams, features",
        [
            (8, FeatureConfig(mode="svd", k=3)),
            (12, FeatureConfig()),
            (_BLAS_MIN_P + 1, FeatureConfig()),
        ],
        ids=["svd-k3", "raw-p12", "raw-p17"],
    )
    def test_filter_updates_per_ready_row(self, monkeypatch, n_streams, features):
        # Each delta's filter steps every ready row once, through
        # update_block, and no other row; update_block steps some of them
        # in blocks, the rest through update.
        returns, _ = make_market(seed=22, steps=80, n_streams=n_streams)
        regressors = compute_features(returns, features)
        stepped, singles = [], []
        update, update_block = KalmanEstimator.update, KalmanEstimator.update_block

        def counted(self, x, y):
            singles.append(self.vomega)
            return update(self, x, y)

        def counted_block(self, X, Y, out):
            stepped.append((self.vomega, len(X)))
            return update_block(self, X, Y, out)

        monkeypatch.setattr(KalmanEstimator, "update", counted)
        monkeypatch.setattr(KalmanEstimator, "update_block", counted_block)
        estimate_spreads(returns, [EstimatorConfig(d) for d in self.GRID], regressors)
        ready = int(regressors.ready.sum())
        rows = {}
        for vomega, count in stepped:
            rows[vomega] = rows.get(vomega, 0) + count
        assert rows == {1.0 / Smoothing(d).mu: ready for d in self.GRID}
        assert len(singles) < len(self.GRID) * ready     # some blocks

    @pytest.mark.parametrize(
        "steps, reads", [(60, False), (600, True)], ids=["no-writer", "writer"]
    )
    def test_wide_passes_hold_one_covariance_at_a_time(self, steps, reads):
        # With a writer, 600 rows make one delta's coefficient path (0.96 MB)
        # three times its covariance: a pass that kept its rows for the
        # writer, rather than handing each block on, would break the bound.
        returns, _ = make_market(seed=24, steps=steps, n_streams=200)
        regressors = compute_features(returns)
        grid = [EstimatorConfig(d) for d in (0.5, 0.9)]

        def read_and_drop(d, p, rows):
            for _ in rows:
                pass

        write = read_and_drop if reads else None
        estimate_spreads(returns, grid, regressors, write)  # loads scipy's BLAS
        tracemalloc.start()
        try:
            spreads = estimate_spreads(returns, grid, regressors, write)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        covariance = 200 * 200 * 8
        assert peak - spreads.nbytes < 1.5 * covariance

    def test_a_step_one_delta_rejects_fails_on_its_date(self):
        # A prior this wide drives delta 0.9's forecast variance below zero
        # within the first rows; the narrow priors never do.
        returns, _ = make_market(seed=0, steps=300)
        regressors = compute_features(returns)
        wide = EstimatorConfig(delta=0.9, prior_scale=1e20)
        with pytest.raises(DataError) as alone:
            estimate_spreads(returns, [wide], regressors)
        day = re.search(r"on (\S+) rejected", str(alone.value)).group(1)
        narrow = [EstimatorConfig(delta=0.2), EstimatorConfig(delta=0.5)]
        estimate_spreads(returns, narrow, regressors)
        with pytest.raises(
            DataError,
            match=f"regression update on {day} rejected at delta 0.9: "
            "forecast variance must stay positive",
        ):
            estimate_spreads(returns, narrow + [wide], regressors)

    def test_a_rejecting_delta_is_named_on_every_path(self):
        # numpy's block step below _BLAS_MIN_P, BLAS's from it: the message
        # names the delta, not its place in the grid.
        for n_streams in (8, _BLAS_MIN_P + 1):
            returns, _ = make_market(seed=0, steps=300, n_streams=n_streams)
            grid = [
                EstimatorConfig(delta=0.2),
                EstimatorConfig(delta=0.9, prior_scale=1e20),
                EstimatorConfig(delta=0.5),
            ]
            with pytest.raises(DataError, match="rejected at delta 0.9: "):
                estimate_spreads(returns, grid, compute_features(returns))

    @pytest.mark.parametrize(
        "n_streams, features",
        [
            (8, FeatureConfig()),
            (_BLAS_MIN_P + 1, FeatureConfig()),
            (8, FeatureConfig(mode="svd", k=3)),
        ],
        ids=["raw-p8", "raw-p17", "svd-k3"],
    )
    def test_a_rejection_names_the_rejected_rows_date(self, n_streams, features):
        # The named date is that of the row update rejects, not the first
        # of its run of ready rows (the svd rows start at the third).
        returns, _ = make_market(seed=0, steps=300, n_streams=n_streams)
        regressors = compute_features(returns, features)
        kf = KalmanEstimator.from_smoothing(
            regressors.values.shape[1], Smoothing(0.9), prior_scale=1e20
        )
        with pytest.raises(RejectedStep):
            for i in np.flatnonzero(regressors.ready):
                kf.update(regressors.values[i], returns.target[i])
        assert i > np.argmax(regressors.ready)
        wide = EstimatorConfig(delta=0.9, prior_scale=1e20)
        with pytest.raises(DataError, match=f"on {returns.dates[i]} rejected at delta 0.9: "):
            estimate_spreads(returns, [wide], regressors)

    @pytest.mark.parametrize("n_streams", [8, 9, _BLAS_MIN_P + 1])
    def test_rows_a_writer_leaves_unread_are_still_stepped(self, n_streams):
        # numpy's block step below _BLAS_MIN_P, BLAS's from it; the writer
        # reads each delta's first block only.
        steps = 2 * BLOCK_CELLS // 10      # more than two writer blocks
        returns, _ = make_market(seed=25, steps=steps, n_streams=n_streams)
        regressors = compute_features(returns)
        grid = [EstimatorConfig(d) for d in self.GRID]
        unwritten = estimate_spreads(returns, grid, regressors)
        first_blocks = {}

        def read_one(d, p, rows):
            first_blocks[d] = next(rows)[0].copy()

        spreads = estimate_spreads(returns, grid, regressors, read_one)
        _, paths = with_coefficients(returns, grid, regressors)
        for d, (betas, _, _) in enumerate(paths):
            np.testing.assert_array_equal(spreads[:, d], unwritten[:, d])
            first = first_blocks[d]
            assert len(first) < len(returns)
            np.testing.assert_array_equal(first, betas[: len(first)])

    def test_an_empty_grid_is_rejected(self):
        returns, _ = make_market(seed=23, steps=30)
        with pytest.raises(ValueError, match="at least one estimator"):
            estimate_spreads(returns, [], compute_features(returns))


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
        ledger = backtest(returns, prices, EstimatorConfig(delta=0.5), warmup=20)
        acc = 0.0
        for i, v in enumerate(ledger.pnl):
            acc += v
            assert ledger.cum_pnl[i] == acc   # bitwise: same accumulation order

    def test_book_tracks_suggestion_within_half_contract(self):
        returns, prices = make_market(seed=8, steps=300)
        ledger = backtest(returns, prices, EstimatorConfig(delta=0.5), warmup=10)
        book = np.cumsum(ledger.order)
        assert np.max(np.abs(book - ledger.position)) <= 0.5 + 1e-9

    def test_sign_antisymmetry(self):
        returns, prices = make_market(seed=9, steps=250)
        spreads = spreads_of(returns, EstimatorConfig(delta=0.5))
        base = simulate_trading(returns.dates, spreads, prices, warmup=5)
        flipped = simulate_trading(returns.dates, -spreads, prices, warmup=5)
        np.testing.assert_array_equal(flipped.position, -base.position)
        np.testing.assert_array_equal(flipped.pnl, -base.pnl)
        assert np.max(np.abs(flipped.order + base.order)) <= 1

    def test_no_lookahead(self):
        """Scrambling every row after day d leaves rows up to d unchanged."""
        returns, prices = make_market(seed=10, steps=150)
        spreads = spreads_of(returns, EstimatorConfig(delta=0.5))
        d = 70
        full = simulate_trading(returns.dates, spreads, prices, warmup=5)
        rng = np.random.default_rng(0)
        scrambled_spreads = spreads.copy()
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
        spreads = spreads_of(returns, EstimatorConfig(delta=0.5))
        ledger = simulate_trading(returns.dates, spreads, prices, warmup=30)
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
        spreads = spreads_of(returns, EstimatorConfig(delta=0.5))
        free = simulate_trading(returns.dates, spreads, prices)
        sizing = SizingConfig(cost_per_contract=2.0)
        costly = simulate_trading(returns.dates, spreads, prices, sizing=sizing)
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
        five = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(5)]
        for length in (3, 8):       # too short, too long
            with pytest.raises(ValueError, match=r"active must have shape \(5,\)"):
                simulate_trading(
                    five, np.full(5, 0.01), np.full(6, 100.0), active=np.ones(length, bool)
                )

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
        grid = [EstimatorConfig(delta=0.5), EstimatorConfig(delta=0.9)]
        regressors = compute_features(returns)
        ledgers = run_backtest(returns, prices, grid, regressors, warmup=20)
        spreads = estimate_spreads(returns, grid, regressors)
        assert len(ledgers) == len(grid)
        for ledger, column in zip(ledgers, spreads.T):
            assert len(ledger) == len(returns) == len(column)
            assert ledger.dates == returns.dates
            np.testing.assert_array_equal(ledger.spread, column)

    def test_rows_without_regressors_trade_flat(self):
        returns, prices = make_market(seed=14, steps=150)
        features = FeatureConfig(mode="svd", k=3)
        ledger = backtest(returns, prices, EstimatorConfig(delta=0.5), features)
        np.testing.assert_array_equal(ledger.signal[:2], 0)
        assert np.any(ledger.signal[2:] != 0)

    def test_misaligned_prices_rejected(self):
        returns, prices = make_market(seed=15, steps=100)
        with pytest.raises(ValueError):
            backtest(returns, prices[:-5], EstimatorConfig(delta=0.5))

    @pytest.mark.parametrize(
        "trim, bad, match",
        [
            (5, {}, "one leading anchor price"),
            (0, {"rule": "martingale"}, "rule must be one of"),
            (0, {"warmup": -1}, "warmup must be >= 0"),
        ],
        ids=["prices", "rule", "warmup"],
    )
    def test_bad_trading_inputs_fail_before_the_filter_steps(
        self, monkeypatch, trim, bad, match
    ):
        returns, prices = make_market(seed=15, steps=100)
        calls = []
        update = KalmanEstimator.update

        def counted(self, x, y):
            calls.append("update")
            return update(self, x, y)

        def write_coefficients(d, p, rows):
            calls.append("write")

        monkeypatch.setattr(KalmanEstimator, "update", counted)
        with pytest.raises(ValueError, match=match):
            run_backtest(
                returns, prices[: len(prices) - trim],
                [EstimatorConfig(delta=0.5), EstimatorConfig(delta=0.9)],
                compute_features(returns),
                write_coefficients=write_coefficients, **bad,
            )
        assert calls == []

    def test_prices_read_after_the_returns_are_rejected(self):
        # to_log_returns spends the table: a late read gets no rows, never
        # the returns written over the prices.
        table, _ = gen_market(MarketConfig(seed=15, steps=100))
        returns = to_log_returns(table)
        with pytest.raises(ValueError, match=r"must have length 100 .*, got 0$"):
            backtest(returns, table.prices[:, 0], EstimatorConfig(delta=0.5))


class TestLedgerCsv:
    def test_round_trip(self, tmp_path):
        returns, prices = make_market(seed=16, steps=60)
        ledger = backtest(returns, prices, EstimatorConfig(delta=0.5), warmup=5)
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

    def test_dates_spelled_once_give_the_same_bytes(self, tmp_path):
        returns, prices = make_market(seed=16, steps=60)
        ledger = backtest(returns, prices, EstimatorConfig(delta=0.5), warmup=5)
        alone, shared = tmp_path / "alone.csv", tmp_path / "shared.csv"
        write_ledger_csv(alone, ledger)
        write_ledger_csv(shared, ledger, iso_dates(returns.dates))
        assert shared.read_bytes() == alone.read_bytes()
        with pytest.raises(ValueError, match="columns of one length"):
            write_ledger_csv(shared, ledger, iso_dates(returns.dates[1:]))

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
