"""Tests for the synthetic data generators."""

import datetime as dt

import numpy as np
import pytest

from flexls.ingest import to_log_returns
from flexls.synth import Fig2Config, MarketConfig, gen_fig2, gen_market


class TestFig2:
    def test_same_config_is_bitwise_reproducible(self):
        cfg = Fig2Config(seed=42)
        x1, y1, b1 = gen_fig2(cfg)
        x2, y2, b2 = gen_fig2(cfg)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
        assert np.array_equal(b1, b2)

    def test_seed_changes_output(self):
        x1, _, _ = gen_fig2(Fig2Config(seed=0))
        x2, _, _ = gen_fig2(Fig2Config(seed=1))
        assert not np.array_equal(x1, x2)

    def test_shapes_and_start(self):
        cfg = Fig2Config(steps=300)
        x, y, beta = gen_fig2(cfg)
        assert x.shape == y.shape == beta.shape == (300,)
        assert beta[0] == cfg.beta_start

    def test_jump_is_exact(self):
        cfg = Fig2Config(seed=7)
        _, _, beta = gen_fig2(cfg)
        i = cfg.jump_step - 1
        assert beta[i] - beta[i - 1] == cfg.jump_size

    def test_observation_noise_is_bounded(self):
        for seed in range(5):
            cfg = Fig2Config(seed=seed)
            x, y, beta = gen_fig2(cfg)
            eps = y - x * beta
            assert np.all(np.abs(eps) <= cfg.obs_noise_bound)

    def test_sine_regime_tracks_sinusoid_within_noise_bound(self):
        cfg = Fig2Config(seed=3)
        _, _, beta = gen_fig2(cfg)
        t = np.arange(cfg.drift_until + 1, cfg.steps + 1)
        wave = cfg.sine_amplitude * np.sin(cfg.sine_frequency * t)
        assert np.all(np.abs(beta[cfg.drift_until :] - wave) <= cfg.sine_noise_bound)

    def test_drift_regime_is_nearly_constant(self):
        cfg = Fig2Config(seed=5)
        _, _, beta = gen_fig2(cfg)
        seg = beta[cfg.jump_step - 1 : cfg.drift_until]
        assert np.max(np.abs(np.diff(seg))) < 20.0 * cfg.drift_sd

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(steps=0),
            dict(walk_until=150, jump_step=100),
            dict(jump_step=250, drift_until=200),
            dict(walk_sd=-0.1),
            dict(ar_coeff=1.0),
            dict(ar_noise_sd=-1.0),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Fig2Config(**kwargs)

    def test_negative_seed_rejected(self):
        # numpy's generator would reject it too, but only once drawing starts.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            Fig2Config(seed=-1)


class TestMarket:
    def test_same_config_is_bitwise_reproducible(self):
        cfg = MarketConfig(seed=11)
        t1, l1 = gen_market(cfg)
        t2, l2 = gen_market(cfg)
        assert np.array_equal(t1.prices, t2.prices)
        assert np.array_equal(l1, l2)
        assert t1.dates == t2.dates
        assert t1.labels == t2.labels

    def test_table_layout(self):
        cfg = MarketConfig(n_streams=5, steps=40, start=dt.date(2001, 1, 1))
        table, levels = gen_market(cfg)
        assert table.prices.shape == (40, 6)
        assert table.labels == ["INDEX", "S001", "S002", "S003", "S004", "S005"]
        assert levels.shape == (39,)
        assert table.dates[0] == dt.date(2001, 1, 1)
        assert table.dates[-1] == dt.date(2001, 1, 1) + dt.timedelta(days=39)
        assert table.prices[0, 0] == cfg.target_base_price
        np.testing.assert_array_equal(table.prices[0, 1:], cfg.base_price)
        assert np.all(table.prices > 0.0)

    def test_zero_spread_vol_makes_target_exactly_spanned(self):
        cfg = MarketConfig(seed=2, spread_vol=0.0)
        table, levels = gen_market(cfg)
        np.testing.assert_array_equal(levels, 0.0)
        rets = to_log_returns(table)
        # Recover the combination weights from the first rows, then the
        # target return must be that combination everywhere.
        w, *_ = np.linalg.lstsq(rets.features, rets.target, rcond=None)
        resid = rets.target - rets.features @ w
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)

    def test_spread_level_autocorrelation_matches_reversion_rate(self):
        # AR(1) with keep = 1 - reversion has lag-1 autocorrelation = keep.
        for rev in (0.35, 0.7):
            acs = []
            for seed in range(10):
                _, lv = gen_market(MarketConfig(seed=seed, spread_reversion=rev))
                d = lv - lv.mean()
                acs.append(float((d[:-1] @ d[1:]) / (d @ d)))
            assert abs(float(np.mean(acs)) - (1.0 - rev)) < 0.03

    def test_log_returns_recover_generated_increments(self):
        cfg = MarketConfig(seed=4, steps=50)
        table, _ = gen_market(cfg)
        target_prices = table.prices[:, 0].copy()
        rets = to_log_returns(table)
        assert len(rets) == 49
        # prices are exp of cumulative sums, so log-returns invert exactly
        # up to rounding
        rebuilt = np.exp(np.concatenate(([0.0], np.cumsum(rets.target))))
        np.testing.assert_allclose(
            target_prices, cfg.target_base_price * rebuilt, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(steps=1),
            dict(spread_reversion=0.0),
            dict(spread_reversion=1.0),
            dict(factor_vol=-0.1),
            dict(n_streams=0),
            dict(base_price=0.0),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MarketConfig(**kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            MarketConfig(seed=-1)
