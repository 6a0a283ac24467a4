"""Acceptance gate: end-to-end accuracy, integrity and performance floors.

Ten checks covering the whole pipeline: the two online engines agree to
rounding level, the smoother is a true global minimizer, the tiny-delta
limit recovers ordinary least squares, regime changes are tracked on the
synthetic single-regressor stream, the eigen tracker finds the principal
axes, the trading ledger is internally consistent, the mean-reversion
system beats buy-and-hold on markets built to mean-revert, the metrics
match hand-computed fixtures, CLI runs are byte-reproducible, and the
filter clears its throughput floors: 50 updates/s at p=432, and 100k
updates/s at p=3, where a row steps on Python floats.

Tolerances and sizes here are contractual; loosening them is a behavior
change, not a test fix.
"""

import datetime as dt
import math
import time

import numpy as np
import pytest

from flexls.cli import EXIT_OK, main
from flexls.estimator import (
    DEFAULT_PRIOR_SCALE,
    FlsEstimator,
    KalmanEstimator,
    Smoothing,
    fls_smooth_batch,
)
from flexls.eigentrack import EigenTracker
from flexls.ingest import ReturnMatrix, to_log_returns, write_csv
from flexls.metrics import max_drawdown, sharpe, summarize
from flexls.strategy import EstimatorConfig, TradeLedger, simulate_trading
from flexls.synth import Fig2Config, MarketConfig, gen_fig2, gen_market

from .oracle import ols_fit, penalized_path_direct, path_cost
from .test_strategy import backtest, spreads_of


def angle_deg(u, v):
    c = abs(float(np.dot(u, v))) / (
        float(np.linalg.norm(u)) * float(np.linalg.norm(v))
    )
    return math.degrees(math.acos(min(1.0, c)))


def make_market(seed, **kwargs):
    table, _ = gen_market(MarketConfig(seed=seed, **kwargs))
    index_prices = table.prices[:, 0].copy()   # the returns overwrite the prices
    return to_log_returns(table), index_prices


class TestEngineEquivalence:
    def test_recursion_and_filter_agree_on_200_streams(self):
        """Criterion 1: penalized recursion vs filter, 200 random streams.

        p cycles through {1, 2, 4, 8} and delta through four values; both
        engines start from the same proper prior.  Element-wise relative
        deviation stays within 1e-9 at every step, inside 10 seconds.
        """
        rng = np.random.default_rng(42)
        dims = [1, 2, 4, 8]
        deltas = [0.2, 0.5, 0.9, 0.98]
        T = 200
        worst = 0.0
        started = time.perf_counter()
        for i in range(200):
            p = dims[i % 4]
            sm = Smoothing(delta=deltas[(i // 4) % 4])
            xs = rng.standard_normal((T, p))
            ys = xs @ rng.standard_normal(p) + 0.1 * rng.standard_normal(T)
            fls = FlsEstimator(p, sm, s0_scale=1e-3)
            kf = KalmanEstimator.fls_equivalent(p, sm, s0_scale=1e-3)
            for x, y in zip(xs, ys):
                bf = fls.update(x, y)
                kf.update(x, y)
                dev = float(np.max(np.abs(bf - kf.beta) / (1.0 + np.abs(bf))))
                if dev > worst:
                    worst = dev
        elapsed = time.perf_counter() - started
        assert worst <= 1e-9
        assert elapsed < 10.0


    @pytest.mark.parametrize(
        "idio_vol", [MarketConfig.idio_vol, 1e-5], ids=["default", "collinear"]
    )
    def test_recursion_and_filter_agree_at_p64(self, idio_vol):
        """Criterion 1 at width: 64 market streams, four deltas.

        With ``idio_vol`` 1e-5 the 64 streams are two factors plus dust, so
        the regressors are nearly collinear.  Same 1e-9 element-wise gate.
        """
        returns, _ = make_market(3, n_streams=64, steps=301, idio_vol=idio_vol)
        p = returns.features.shape[1]
        worst = 0.0
        for delta in [0.2, 0.5, 0.9, 0.98]:
            sm = Smoothing(delta=delta)
            fls = FlsEstimator(p, sm, s0_scale=1e-3)
            kf = KalmanEstimator.fls_equivalent(p, sm, s0_scale=1e-3)
            for x, y in zip(returns.features, returns.target):
                bf = fls.update(x, y)
                kf.update(x, y)
                dev = float(np.max(np.abs(bf - kf.beta) / (1.0 + np.abs(bf))))
                worst = max(worst, dev)
        assert worst <= 1e-9


class TestSmootherOracle:
    def test_smoothed_path_matches_direct_minimizer(self):
        """Criterion 2: 50 instances against a dense normal-equation solve.

        The reference assembles the full block-tridiagonal system with the
        same diffuse prior the smoother applies, so both sides minimize the
        identical objective.  Then the same check over priors no filter can
        start from exactly: a rank-1 singular ``S0`` with ``s0`` in its
        range, a dense one with any ``s0``, and one tighter than ``mu``; at
        deltas near both ends of (0, 1) and with a single observation.
        """
        rng = np.random.default_rng(7)
        deltas = [0.2, 0.5, 0.9]
        for i in range(50):
            T = int(rng.integers(4, 21))
            p = int(rng.integers(1, 4))
            sm = Smoothing(delta=deltas[i % 3])
            xs = rng.standard_normal((T, p))
            ys = xs @ rng.standard_normal(p) + rng.standard_normal(T)
            path = fls_smooth_batch(xs, ys, sm)
            direct = penalized_path_direct(
                xs, ys, sm.mu, S0=np.eye(p) / DEFAULT_PRIOR_SCALE
            )
            assert float(np.max(np.abs(path - direct))) <= 1e-8

        rng = np.random.default_rng(17)
        for kind in ("rank-1", "dense", "tight"):
            for delta in (1e-4, 0.2, 0.9, 0.999):
                for T in (1, int(rng.integers(5, 21))):
                    p = int(rng.integers(1, 4))
                    if kind == "rank-1" and T == 1:
                        continue
                    sm = Smoothing(delta=delta)
                    u = rng.standard_normal(p)
                    if kind == "rank-1":
                        S0, s0 = np.outer(u, u), 0.7 * u
                    elif kind == "dense":
                        m = rng.standard_normal((p, p))
                        S0, s0 = m @ m.T + 0.1 * np.eye(p), u
                    else:
                        S0 = np.eye(p) * 10.0 * sm.mu
                        s0 = S0 @ u
                    xs = rng.standard_normal((T, p))
                    ys = xs @ rng.standard_normal(p) + rng.standard_normal(T)
                    path = fls_smooth_batch(xs, ys, sm, prior=(S0, s0))
                    direct = penalized_path_direct(xs, ys, sm.mu, S0=S0, s0=s0)
                    assert float(np.max(np.abs(path - direct))) <= 1e-8


class TestLeastSquaresLimit:
    def test_small_delta_recovers_static_fit(self):
        """Criterion 3: as delta shrinks the terminal estimate goes to OLS.

        Delta 0.001 keeps an effective memory of about sqrt(mu) = 32
        samples, so the residual noise must be small for the terminal
        estimate to sit within 1e-2 of the full-sample fit; at sd 0.01
        the final gap is ~4e-4 and each delta step shrinks it over 3x.
        """
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((500, 3))
        ys = xs @ np.array([1.5, -2.0, 0.5]) + 0.01 * rng.standard_normal(500)
        target = ols_fit(xs, ys)
        gaps = []
        for delta in (0.1, 0.01, 0.001):
            est = FlsEstimator(3, Smoothing(delta=delta))
            for x, y in zip(xs, ys):
                beta = est.update(x, y)
            gaps.append(float(np.max(np.abs(beta - target))))
        assert gaps[2] <= 1e-2
        assert gaps[0] > gaps[1] > gaps[2]


class TestRegimeTracking:
    def test_single_regressor_regimes_over_20_seeds(self):
        """Criterion 4: walk, jump and sinusoid regimes at delta 0.98.

        The online path keeps per-regime RMSE within 1.5, locks back onto
        the truth within ten steps of the level jump, and the smoothed
        path never scores a higher total objective than the online one.
        Whole sweep inside 5 seconds.
        """
        sm = Smoothing(delta=0.98)
        started = time.perf_counter()
        for seed in range(20):
            x, y, truth = gen_fig2(Fig2Config(seed=seed))
            xs = x[:, None]
            est = FlsEstimator(1, sm)
            online = np.array([est.update(xi, yi)[0] for xi, yi in zip(xs, y)])

            walk_rmse = float(
                np.sqrt(np.mean((online[1:99] - truth[1:99]) ** 2))
            )
            assert walk_rmse <= 1.5
            # jump lands at step 100; reacquire within the next ten steps
            assert float(np.min(np.abs(online[99:110] - truth[99:110]))) <= 1.0
            sine_rmse = float(
                np.sqrt(np.mean((online[200:] - truth[200:]) ** 2))
            )
            assert sine_rmse <= 1.5

            offline = fls_smooth_batch(xs, y, sm)
            prior = np.eye(1) / DEFAULT_PRIOR_SCALE
            cost_off = path_cost(xs, y, sm.mu, offline, S0=prior)
            cost_on = path_cost(xs, y, sm.mu, online[:, None], S0=prior)
            assert cost_off <= cost_on
        assert time.perf_counter() - started < 5.0


class TestEigenTracking:
    VARIANCES = np.array([4.0, 1.0, 0.25, 0.05, 0.05, 0.05, 0.05, 0.05])

    def test_recovers_principal_axes_over_10_seeds(self):
        """Criterion 5a: axis-aligned covariance, p=8, k=3, n=5000.

        Leading component within 5 degrees of its axis, the next two
        within 10, and the per-step deflation defect at rounding level.
        """
        scale = np.sqrt(self.VARIANCES)
        bounds = [5.0, 10.0, 10.0]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tracker = EigenTracker(p=8, k=3)
            worst_defect = 0.0
            for _ in range(5000):
                defect = tracker.update(rng.standard_normal(8) * scale)
                if defect > worst_defect:
                    worst_defect = defect
            assert worst_defect <= 1e-10
            comps = tracker.components()
            for j in range(3):
                axis = np.zeros(8)
                axis[j] = 1.0
                assert angle_deg(comps[j], axis) < bounds[j]

    def test_recursion_equals_explicit_average(self):
        """Criterion 5b: the amnesia-free update is an exact running mean.

        Reference keeps literal per-component sums of (u'g) u over the
        samples each component has seen and divides by the count.
        """
        rng = np.random.default_rng(21)
        samples = rng.standard_normal((200, 8)) * np.sqrt(self.VARIANCES)
        k = 3
        tracker = EigenTracker(p=8, k=k)
        sums = [np.zeros(8) for _ in range(k)]
        h = [None] * k
        counts = [0] * k
        active = 0
        for r in samples:
            tracker.update(r)
            u = r.copy()
            seeded = False
            for j in range(k):
                if j == active:
                    if seeded:
                        break       # one new component per sample
                    h[j] = u.copy()
                    active += 1
                    seeded = True
                g = h[j] / np.linalg.norm(h[j])
                sums[j] += (u @ g) * u
                counts[j] += 1
                h[j] = sums[j] / counts[j]
                gn = h[j] / np.linalg.norm(h[j])
                u = u - (u @ gn) * gn
        for j in range(k):
            np.testing.assert_allclose(tracker.h[j], h[j], rtol=0, atol=1e-12)


class TestLedgerIntegrity:
    def test_100_markets(self):
        """Criterion 6: accounting identities on 100 random markets.

        Cumulative P&L equals the running sum of daily P&L bitwise, rows
        before day d never change when everything from d on is scrambled,
        and flipping the sign of every residual mirrors the book within
        one contract per day.
        """
        cfg = EstimatorConfig(delta=0.5)
        d = 70
        for seed in range(100):
            returns, prices = make_market(seed, steps=130)
            ledger = backtest(returns, prices, cfg, warmup=40)

            total = 0.0
            for i, value in enumerate(ledger.pnl):
                total += value
                assert ledger.cum_pnl[i] == total

            scrambled = ReturnMatrix(
                dates=returns.dates,
                target=np.concatenate(
                    [returns.target[:d], returns.target[:d - 1 :-1]]
                ),
                features=np.concatenate(
                    [returns.features[:d], returns.features[:d - 1 :-1]]
                ),
                target_label=returns.target_label,
                feature_labels=returns.feature_labels,
            )
            scrambled_prices = prices.copy()
            scrambled_prices[d + 1 :] = scrambled_prices[d + 1 :][::-1]
            other = backtest(scrambled, scrambled_prices, cfg, warmup=40)
            np.testing.assert_array_equal(ledger.spread[:d], other.spread[:d])
            np.testing.assert_array_equal(ledger.position[:d], other.position[:d])
            np.testing.assert_array_equal(ledger.order[:d], other.order[:d])
            np.testing.assert_array_equal(ledger.pnl[:d], other.pnl[:d])

            mirrored = simulate_trading(
                returns.dates, -ledger.spread, prices, warmup=40
            )
            np.testing.assert_array_equal(mirrored.position, -ledger.position)
            np.testing.assert_array_equal(mirrored.pnl, -ledger.pnl)
            assert int(np.max(np.abs(mirrored.order + ledger.order))) <= 1


class TestStrategySanity:
    def test_beats_buy_and_hold_on_mean_reverting_markets(self):
        """Criterion 7a: strong reversion, 50 seeds, win rate >= 80%."""
        cfg = EstimatorConfig(delta=0.5)
        warmup = 60
        wins = 0
        for seed in range(50):
            returns, prices = make_market(seed, spread_reversion=0.7)
            fls_ledger = backtest(returns, prices, cfg, warmup=warmup)
            hold_ledger = backtest(returns, prices, cfg, warmup=warmup, rule="buy-hold")
            fls_sharpe = summarize(fls_ledger, 1e8, warmup).sharpe
            hold_sharpe = summarize(hold_ledger, 1e8, warmup).sharpe
            assert fls_sharpe is not None and hold_sharpe is not None
            if fls_sharpe > hold_sharpe:
                wins += 1
        assert wins >= 40

    def test_zero_spread_volatility_gives_flat_signal(self):
        """Criterion 7b: exact linear pricing leaves no residual to trade."""
        table, _ = gen_market(MarketConfig(seed=0, spread_vol=0.0, steps=1500))
        returns = to_log_returns(table)
        spreads = spreads_of(returns, EstimatorConfig(delta=0.98))
        assert float(np.max(np.abs(spreads[700:]))) <= 1e-8


class TestMetricsFixtures:
    def test_drawdown_and_sharpe_hand_cases(self):
        """Criterion 8a: the two single-number fixtures."""
        assert max_drawdown([0.0, 10.0, 5.0, 12.0, 3.0], 100.0) == 9.0
        assert sharpe([1.0, 2.0, 3.0]) == 2.0

    def test_five_day_ledger_report(self):
        """Criterion 8b: every report field against hand arithmetic."""
        pnl = [1000.0, -500.0, 0.0, 2000.0, -250.0]
        positions = [10.0, -10.0, 0.0, 5.0, 5.0]
        spreads = [0.01, -0.02, 0.005, -0.01, 0.004]
        w = 1e6
        ledger = TradeLedger(
            dates=[dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(5)],
            spread=np.asarray(spreads),
            signal=np.sign(positions).astype(np.int64),
            position=np.asarray(positions),
            order=np.zeros(5, dtype=np.int64),
            pnl=np.asarray(pnl),
            index_price=np.full(5, 1400.0),
        )
        rep = summarize(ledger, endowment=w, split=2)
        # evaluation rows: pnl (0, 2000, -250), positions (0, 5, 5)
        assert rep.pct_gain == pytest.approx(0.2)
        assert rep.pct_loss == pytest.approx(-0.025)
        assert rep.mdd == pytest.approx(0.025)
        assert rep.pct_win == 50.0
        assert rep.pct_lose == 50.0
        assert rep.ann_return == pytest.approx(14.7)
        sd = float(np.std([0.0, 2000.0, -250.0], ddof=1))
        assert rep.ann_vol == pytest.approx(sd * math.sqrt(252.0) / w * 100.0)
        assert rep.sharpe == pytest.approx(rep.ann_return / rep.ann_vol)
        assert rep.mse_in == pytest.approx(2.5e-4)
        assert rep.mse_out == pytest.approx(
            (0.005**2 + 0.01**2 + 0.004**2) / 3.0
        )


class TestDeterminism:
    def snapshot(self, out_dir):
        return {
            f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
        }

    def test_backtest_reruns_byte_identical(self, tmp_path):
        """Criterion 9a: same config, same bytes, file for file."""
        table, _ = gen_market(MarketConfig(seed=3, steps=200))
        data = tmp_path / "prices.csv"
        write_csv(table, data)
        out = tmp_path / "run"
        conf = tmp_path / "job.conf"
        conf.write_text(
            f"data = {data}\ntarget = INDEX\ndelta = 0.5\n"
            f"warmup = 40\nout_dir = {out}\n"
        )
        assert main(["backtest", "--config", str(conf)]) == EXIT_OK
        first = self.snapshot(out)
        assert main(["backtest", "--config", str(conf)]) == EXIT_OK
        assert self.snapshot(out) == first

    def test_sim_reruns_byte_identical(self, tmp_path):
        """Criterion 9b: the simulation command, both output files."""
        out = tmp_path / "fig2"
        argv = ["sim-fig2", "--seed", "11", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        first = self.snapshot(out)
        assert main(argv) == EXIT_OK
        assert self.snapshot(out) == first


class TestThroughput:
    def rate(self, p, n):
        """Updates per second: the best of 3 timed passes over the same
        stream (the timeit convention), so that a burst of load from
        another process cannot fail a floor."""
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((n, p))
        ys = rng.standard_normal(n)
        best = 0.0
        for _ in range(3):
            kf = KalmanEstimator(p, vomega=1.0)
            started = time.perf_counter()
            for i in range(n):
                kf.update(xs[i], ys[i])
            best = max(best, n / (time.perf_counter() - started))
        return best

    def test_filter_update_rates(self):
        """Criterion 10: 50 updates/s at p=432, on the one-triangle BLAS
        step."""
        assert self.rate(432, 150) >= 50.0

    def test_jit_filter_update_rate_small_p(self):
        """Criterion 10: 100k updates/s at p=3, on the float step that
        every filter below p=6 takes (the name is kept from when a JIT
        compiled this step)."""
        assert self.rate(3, 30_000) >= 100_000.0
