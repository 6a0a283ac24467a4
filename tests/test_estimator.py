"""Unit and property tests for the recursive estimators."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import flexls.estimator as estimator_module
from flexls.estimator import (
    DEFAULT_PRIOR_SCALE,
    FlsEstimator,
    KalmanEstimator,
    RejectedStep,
    Smoothing,
    UnderdeterminedError,
    _kf_block_impl,
    _kf_step_impl,
    _kf_step_loops,
    fls_smooth_batch,
    write_coefficient_csv,
)
from flexls.ingest import DataError, to_log_returns
from flexls.strategy import EstimatorConfig, Regressors, estimate_spreads
from flexls.synth import MarketConfig, gen_market
from flexls.util import BLOCK_CELLS

from .oracle import ols_fit, penalized_path_direct, path_cost
from .test_strategy import make_market, with_coefficients


class TestSmoothing:
    def test_mu_formula(self):
        assert Smoothing(0.5).mu == 1.0
        assert Smoothing(0.2).mu == pytest.approx(4.0)
        assert Smoothing(0.98).mu == pytest.approx((1 - 0.98) / 0.98)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5, float("nan")])
    def test_rejects_delta_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            Smoothing(bad)


class TestFlsEstimator:
    def test_first_scalar_observation_fits_exactly(self):
        # Flat start, one observation: the estimate is y/x with no shrinkage.
        est = FlsEstimator(1, Smoothing(0.5), s0_scale=0.0)
        beta = est.update([1.0], 2.0)
        assert beta[0] == 2.0

    def test_matches_textbook_recursion(self):
        """Per-step estimate equals the closed-form surface minimizer."""
        rng = np.random.default_rng(3)
        p, T = 3, 40
        sm = Smoothing(0.5)
        est = FlsEstimator(p, sm, s0_scale=1e-3)
        S = np.eye(p) * 1e-3
        s = np.zeros(p)
        for _ in range(T):
            x = rng.normal(size=p)
            y = float(rng.normal())
            beta = est.update(x, y)
            B = S + np.outer(x, x)
            b = s + x * y
            ref = np.linalg.solve(B, b)
            np.testing.assert_allclose(beta, ref, rtol=0, atol=1e-12)
            A = B + sm.mu * np.eye(p)
            S = sm.mu * np.linalg.solve(A, B)
            S = 0.5 * (S + S.T)
            s = sm.mu * np.linalg.solve(A, b)
        np.testing.assert_allclose(est.S, S, atol=1e-12)
        np.testing.assert_allclose(est.s, s, atol=1e-12)

    def test_underdetermined_first_step_raises_and_preserves_state(self):
        est = FlsEstimator(2, Smoothing(0.5), s0_scale=0.0)
        with pytest.raises(UnderdeterminedError):
            est.update([1.0, 1.0], 3.0)
        assert est.t == 0
        np.testing.assert_array_equal(est.S, np.zeros((2, 2)))
        np.testing.assert_array_equal(est.s, np.zeros(2))

    def test_diffuse_prior_avoids_underdetermined_start(self):
        est = FlsEstimator(2, Smoothing(0.5))
        beta = est.update([1.0, 1.0], 3.0)
        assert est.t == 1
        assert np.all(np.isfinite(beta))

    def test_rejects_bad_inputs(self):
        est = FlsEstimator(2, Smoothing(0.5))
        with pytest.raises(ValueError):
            est.update([1.0], 1.0)
        with pytest.raises(ValueError):
            est.update([1.0, float("nan")], 1.0)
        with pytest.raises(ValueError):
            est.update([1.0, 2.0], float("inf"))
        with pytest.raises(ValueError):
            FlsEstimator(0, Smoothing(0.5))
        with pytest.raises(ValueError):
            FlsEstimator(2, Smoothing(0.5), s0_scale=-1.0)


class TestSmoothBatch:
    def test_matches_direct_minimizer_small(self):
        # T=5, p=2, every step within 1e-8 of the dense solution.
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(5, 2))
        ys = rng.normal(size=5)
        sm = Smoothing(0.5)
        path = fls_smooth_batch(xs, ys, sm)
        S0 = np.eye(2) / DEFAULT_PRIOR_SCALE
        ref = penalized_path_direct(xs, ys, sm.mu, S0=S0)
        np.testing.assert_allclose(path, ref, rtol=0, atol=1e-8)

    def test_matches_direct_minimizer_zero_prior(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            p = int(rng.integers(1, 4))
            T = int(rng.integers(p + 2, 21))
            xs = rng.normal(size=(T, p))
            ys = rng.normal(size=T)
            sm = Smoothing(float(rng.choice([0.2, 0.5, 0.9, 1e-4, 0.999])))
            path = fls_smooth_batch(xs, ys, sm, prior=(np.zeros((p, p)), np.zeros(p)))
            ref = penalized_path_direct(xs, ys, sm.mu)
            np.testing.assert_allclose(path, ref, rtol=0, atol=1e-8)
        # A single observation under a flat prior is fitted exactly: 3 / 2.
        flat = (np.zeros((1, 1)), np.zeros(1))
        path = fls_smooth_batch([[2.0]], [3.0], Smoothing(0.5), prior=flat)
        np.testing.assert_allclose(path, [[1.5]], rtol=0, atol=1e-12)

    def test_constant_coefficient_data_recovered_exactly(self):
        # Noise-free y = 3x: the zero-cost path is constant at 3.
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(20, 1))
        ys = 3.0 * xs[:, 0]
        for delta in (0.2, 0.5, 0.9):
            path = fls_smooth_batch(
                xs, ys, Smoothing(delta), prior=(np.zeros((1, 1)), np.zeros(1))
            )
            np.testing.assert_allclose(path, 3.0, rtol=0, atol=1e-10)

    def test_smoothed_cost_never_above_online_cost(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            p = int(rng.integers(1, 4))
            T = int(rng.integers(5, 30))
            xs = rng.normal(size=(T, p))
            # drifting truth so the two paths genuinely differ
            drift = np.cumsum(rng.normal(scale=0.2, size=(T, p)), axis=0)
            ys = np.sum(xs * drift, axis=1) + rng.normal(scale=0.1, size=T)
            sm = Smoothing(0.9)
            s0_scale = 1e-3
            est = FlsEstimator(p, sm, s0_scale=s0_scale)
            online = np.array([est.update(xs[t], ys[t]) for t in range(T)])
            smoothed = fls_smooth_batch(
                xs, ys, sm, prior=(np.eye(p) * s0_scale, np.zeros(p))
            )
            S0 = np.eye(p) * s0_scale
            c_online = path_cost(xs, ys, sm.mu, online, S0=S0)
            c_smooth = path_cost(xs, ys, sm.mu, smoothed, S0=S0)
            assert c_smooth <= c_online + 1e-9 * abs(c_online)

    @pytest.mark.parametrize("p", [1, 8, 17, 40])
    def test_last_row_is_the_filtered_estimate(self, p):
        # The smoother's default prior S0 = I/1e6 gives the first row a
        # spread of 1e6 I.  A filter forecasts the first row with that
        # spread from P = (1e6 - 1/mu) I, and the last row has no future
        # data, so the filter's last estimate is the smoother's last row.
        # The widths cover both sides of _BLAS_MIN_P.
        returns = to_log_returns(
            gen_market(MarketConfig(seed=p, n_streams=p, steps=600))[0]
        )
        for delta in (0.2, 0.9, 0.995):
            smoothing = Smoothing(delta)
            path = fls_smooth_batch(returns.features, returns.target, smoothing)
            vomega = 1.0 / smoothing.mu
            kf = KalmanEstimator(
                p, vomega=vomega, prior_scale=DEFAULT_PRIOR_SCALE - vomega
            )
            for x, y in zip(returns.features, returns.target):
                kf.update(x, y)
            error = np.abs(kf.beta - path[-1]).max()
            assert error <= 1e-12 * np.abs(path[-1]).max()

    def test_singular_terminal_system_raises(self):
        # Two observations cannot pin down three coefficients without a prior.
        xs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        ys = np.array([1.0, 2.0])
        with pytest.raises(UnderdeterminedError):
            fls_smooth_batch(
                xs, ys, Smoothing(0.5), prior=(np.zeros((3, 3)), np.zeros(3))
            )

    def test_rejects_bad_shapes(self):
        sm = Smoothing(0.5)
        with pytest.raises(ValueError):
            fls_smooth_batch(np.zeros(5), np.zeros(5), sm)
        with pytest.raises(ValueError):
            fls_smooth_batch(np.zeros((5, 2)), np.zeros(4), sm)
        with pytest.raises(ValueError):
            fls_smooth_batch(np.full((5, 2), np.nan), np.zeros(5), sm)

    @pytest.mark.parametrize("T", [1, 5])
    def test_huge_finite_inputs_raise_instead_of_nan(self, T):
        xs = np.full((T, 2), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                fls_smooth_batch(xs, np.ones(T), Smoothing(0.5))

    def test_peak_memory_stays_linear_in_T_on_a_wide_problem(self):
        # p=432, T=2500: a (T, p, p) record alone would be 3.7 GB, and each
        # (T, p) array is 8.6 MB.
        table, _ = gen_market(MarketConfig(seed=0, n_streams=432, steps=2501))
        returns = to_log_returns(table)
        tracemalloc.start()
        try:
            path = fls_smooth_batch(returns.features, returns.target, Smoothing(0.9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.shape == (2500, 432)
        assert np.isfinite(path).all()
        assert peak < 100e6


class TestKalmanEstimator:
    def test_single_step_by_hand(self):
        """Scalar update worked out by hand: P=1, both noises 1, x=1, y=3,
        so the gain is 2/3."""
        est = KalmanEstimator(1, vomega=1.0, prior_scale=1.0)
        diag = est.update([1.0], 3.0)
        assert diag == (3.0, 3.0)
        assert diag._fields == ("innovation", "forecast_var")
        assert est.beta[0] == pytest.approx(2.0, abs=1e-15)
        assert est.P[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_innovation_free_step_leaves_estimate_unchanged(self):
        rng = np.random.default_rng(9)
        est = KalmanEstimator(3, vomega=0.5)
        for _ in range(5):
            x = rng.normal(size=3)
            est.update(x, rng.normal())
        before = est.beta.copy()
        x = rng.normal(size=3)
        diag = est.update(x, float(x @ before))  # forecast is exact
        assert diag.innovation == 0.0
        np.testing.assert_array_equal(est.beta, before)

    def test_covariance_stays_symmetric_psd(self):
        # Odd p leaves the BLAS downdate a scalar tail after its vector
        # body; 433 does so after any vector width.
        rng = np.random.default_rng(10)
        for p in (3, 4, 7, 433):
            est = KalmanEstimator(p, vomega=2.0)
            for t in range(200):
                est.update(rng.normal(size=p), rng.normal())
                np.testing.assert_array_equal(est.P, est.P.T)
                if p < 10 or t == 199:
                    assert np.linalg.eigvalsh(est.P).min() >= -1e-12

    @pytest.mark.parametrize("p", [17, 433])
    def test_wide_step_never_touches_the_upper_triangle(self, p):
        # From _BLAS_MIN_P the row step keeps P's lower triangle
        # alone: NaN above the diagonal is never read (the path is the same
        # bit for bit), and the zeros above the diagonal of the clean run
        # are never written.  Odd p leaves BLAS a scalar tail after its
        # vector body.
        assert p >= estimator_module._BLAS_MIN_P
        rng = np.random.default_rng(p)
        xs, ys = rng.normal(size=(60, p)), rng.normal(size=60)
        upper = np.triu_indices(p, 1)
        clean, poisoned = np.eye(p) * 5.0, np.eye(p) * 5.0
        poisoned[upper] = np.nan
        b1 = b2 = np.zeros(p)
        for x, y in zip(xs, ys):
            s1, b1, e1, q1, K1 = _kf_step_impl(clean, b1, x, y, 0.7)
            s2, b2, e2, q2, K2 = _kf_step_impl(poisoned, b2, x, y, 0.7)
            assert s1 == s2 == estimator_module._ACCEPTED
            assert b1.tobytes() == b2.tobytes() and K1.tobytes() == K2.tobytes()
            assert e1 == e2 and q1 == q2
        lower = np.tril_indices(p)
        assert clean[lower].tobytes() == poisoned[lower].tobytes()
        assert (clean[upper] == 0.0).all()

    def test_P_is_the_mirrored_lower_triangle(self):
        rng = np.random.default_rng(21)
        for p in (5, 17):
            est = KalmanEstimator(p, vomega=0.5, prior_scale=1.0)
            for _ in range(30):
                est.update(rng.normal(size=p), rng.normal())
            P = est.P
            lower = np.tril_indices(p)
            assert P[lower].tobytes() == est._cov[lower].tobytes()
            np.testing.assert_array_equal(P, P.T)
            assert not P.flags.writeable
            assert not np.shares_memory(P, est._cov)
            # The state cannot be replaced, so it keeps the C-ordered
            # layout the steps need.
            with pytest.raises(AttributeError):
                est.P = np.asfortranarray(P)

    def test_covariance_symmetric_psd_at_p432(self):
        table, _ = gen_market(MarketConfig(seed=3, n_streams=432, steps=201))
        returns = to_log_returns(table)
        est = KalmanEstimator.from_smoothing(432, Smoothing(0.98))
        for x, y in zip(returns.features, returns.target):
            est.update(x, y)
        assert est.t == 200
        np.testing.assert_array_equal(est.P, est.P.T)
        eig = np.linalg.eigvalsh(est.P)
        assert eig.min() >= -1e-12 * eig.max()

    @pytest.mark.parametrize(
        "step", [_kf_step_impl, _kf_step_loops], ids=["impl", "loops"]
    )
    def test_kernel_downdates_only_the_covariance(self, step):
        rng = np.random.default_rng(16)
        p = 5
        a = rng.normal(size=(p, p))
        P = a @ a.T
        beta = rng.normal(size=p)
        x = rng.normal(size=p)
        P_then, beta_then, x_then = P.copy(), beta.copy(), x.copy()
        status, beta_new, e, q, K = step(P, beta, x, 0.7, 0.3)
        assert status == estimator_module._ACCEPTED
        assert beta_new.shape == K.shape == (p,)
        assert np.ndim(e) == np.ndim(q) == 0
        R = P_then + 0.3 * np.eye(p)
        Rx = R @ x
        np.testing.assert_allclose(q, x @ Rx + 1.0, rtol=1e-13)
        np.testing.assert_allclose(e, 0.7 - x @ beta_then, rtol=1e-13)
        np.testing.assert_allclose(K, Rx / q, rtol=1e-13)
        np.testing.assert_allclose(beta_new, beta_then + e * K, rtol=1e-13)
        np.testing.assert_allclose(P, R - np.outer(Rx, Rx) / q, rtol=1e-12)
        np.testing.assert_array_equal(P, P.T)
        np.testing.assert_array_equal(beta, beta_then)
        np.testing.assert_array_equal(x, x_then)

    @pytest.mark.parametrize(
        "step", [_kf_step_impl, _kf_step_loops], ids=["impl", "loops"]
    )
    def test_kernel_leaves_its_inputs_untouched(self, step):
        """A rejected step writes none of its inputs, and returns its
        status without raising or warning."""
        # The first case overflows e and q.  The second has finite e and q,
        # but a gain near 5e7 that carries the 1e305 innovation past the
        # float range.
        P = np.array([[2.0, 0.5], [0.5, 1.0]])
        cases = [
            (estimator_module._NONFINITE, P, np.full(2, 1e200), 1.0),
            (estimator_module._NONFINITE, 1e16 * P, np.full(2, 1e-8), 1e305),
            (estimator_module._NONPOSITIVE, -10.0 * P, np.ones(2), 1.0),
        ]
        for expected, P0, x, y in cases:
            P, beta = P0.copy(), np.array([0.1, -0.2])
            before = [v.copy() for v in (P, beta, x)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                status = step(P, beta, x, y, 0.3)[0]
            assert status == expected
            for now, then in zip((P, beta, x), before):
                np.testing.assert_array_equal(now, then)

    def test_indefinite_prior_rejected_without_warning(self):
        with pytest.raises(ValueError, match="prior_scale must be finite and >= 0"):
            KalmanEstimator(1, vomega=0.0, prior_scale=-10.0)
        # The kernel handed that prior gets q = x'(P + vomega I)x + 1 = -9
        # and takes no square root of it, so it warns about nothing.
        P = np.array([[-10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, beta_new, e, q, K = _kf_step_impl(
                P, np.zeros(1), np.ones(1), 1.0, 0.0
            )
        assert status == estimator_module._NONPOSITIVE
        assert beta_new.shape == K.shape == (1,)
        assert e == 1.0
        assert q == -9.0
        np.testing.assert_array_equal(P, [[-10.0]])

    def test_semidefinite_priors_construct(self):
        KalmanEstimator(2, vomega=1.0)
        est = KalmanEstimator(2, vomega=1.0, prior_scale=0.0)
        np.testing.assert_array_equal(est.P, np.zeros((2, 2)))
        est = KalmanEstimator.fls_equivalent(3, Smoothing(0.5), s0_scale=1.0)
        np.testing.assert_array_equal(est.P, np.zeros((3, 3)))

    def test_forecast_variance_positive(self):
        est = KalmanEstimator(2, vomega=0.0)
        diag = est.update([0.0, 0.0], 1.0)   # zero regressor: unit noise alone
        assert diag.forecast_var == pytest.approx(1.0)

    def test_matches_fls_path(self):
        rng = np.random.default_rng(11)
        p, T = 3, 60
        sm = Smoothing(0.9)
        s0 = 1e-3
        fls = FlsEstimator(p, sm, s0_scale=s0)
        kf = KalmanEstimator.fls_equivalent(p, sm, s0_scale=s0)
        worst = 0.0
        for _ in range(T):
            x = rng.normal(size=p)
            y = float(rng.normal())
            bf = fls.update(x, y)
            kf.update(x, y)
            worst = max(worst, float(np.max(np.abs(bf - kf.beta) / (1 + np.abs(bf)))))
        assert worst < 1e-12

    def test_spread_recursion_identity(self):
        # Inverse of the penalized curvature equals the filter's pre-update
        # spread at the next step, for matched priors and noises.
        rng = np.random.default_rng(12)
        p = 2
        sm = Smoothing(0.5)
        s0 = 1e-2
        fls = FlsEstimator(p, sm, s0_scale=s0)
        kf = KalmanEstimator.fls_equivalent(p, sm, s0_scale=s0)
        for _ in range(30):
            x = rng.normal(size=p)
            y = float(rng.normal())
            fls.update(x, y)
            kf.update(x, y)
            R_next = kf.P + kf.vomega * np.eye(p)
            np.testing.assert_allclose(np.linalg.inv(fls.S), R_next, atol=1e-9)

    def test_fls_equivalent_rejects_prior_tighter_than_mu(self):
        sm = Smoothing(0.5)   # mu = 1
        with pytest.raises(ValueError):
            KalmanEstimator.fls_equivalent(2, sm, s0_scale=2.0)
        with pytest.raises(ValueError):
            KalmanEstimator.fls_equivalent(2, sm, s0_scale=0.0)

    def test_from_smoothing_sets_state_noise(self):
        est = KalmanEstimator.from_smoothing(2, Smoothing(0.2))
        assert est.vomega == pytest.approx(0.25)

    def test_rejects_bad_inputs(self):
        est = KalmanEstimator(2, vomega=1.0)
        with pytest.raises(ValueError):
            est.update([1.0], 1.0)
        with pytest.raises(ValueError):
            est.update([1.0, float("inf")], 1.0)
        with pytest.raises(ValueError):
            est.update([1.0, 2.0], float("nan"))
        with pytest.raises(ValueError):
            KalmanEstimator(2, vomega=-1.0)
        with pytest.raises(TypeError):   # the observation noise is 1
            KalmanEstimator(2, vomega=1.0, veps=1.0)
        with pytest.raises(TypeError):   # not a prior_scale
            KalmanEstimator(2, 1.0, 1.0)
        with pytest.raises(TypeError):   # the prior is one scalar
            KalmanEstimator(2, vomega=1.0, P0=np.eye(2))

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_rejects_bad_prior_scale(self, bad):
        # inf would build a P of inf on the diagonal and nan off it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="prior_scale must be finite"):
                KalmanEstimator(2, vomega=1.0, prior_scale=bad)

    def test_default_prior_scale(self):
        est = KalmanEstimator(2, vomega=0.1)
        np.testing.assert_array_equal(est.P, DEFAULT_PRIOR_SCALE * np.eye(2))

    def test_nonpositive_forecast_variance_raises_and_keeps_state(self):
        est = KalmanEstimator(2, vomega=1.0)
        est.update([1.0, 0.5], 1.0)
        # A covariance set by hand can be indefinite: q = -10.25 here.
        est._cov[:] = [[-10.0, 0.0], [0.0, -10.0]]
        beta, P, t = est.beta.copy(), est.P.copy(), est.t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="forecast variance must stay positive"
            ):
                est.update([1.0, 0.5], -1.0)
        np.testing.assert_array_equal(est.beta, beta)
        np.testing.assert_array_equal(est.P, P)
        assert est.t == t

    def test_overflowing_update_raises_without_warning_and_keeps_state(self):
        est = KalmanEstimator(4, vomega=0.3)
        est.update([0.1, -0.2, 0.3, 0.4], 0.5)
        beta, P, t = est.beta.copy(), est.P.copy(), est.t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite update"):
                est.update(np.full(4, 1e200), 1.0)
        np.testing.assert_array_equal(est.beta, beta)
        np.testing.assert_array_equal(est.P, P)
        assert est.t == t

    def test_overflowing_coefficients_rejected(self):
        # e and q are finite here, but e * K overflows: with x = 1/sqrt(P)
        # the gain is sqrt(P)/2 = 5e7, and the innovation is 1e305.
        est = KalmanEstimator(1, vomega=0.0, prior_scale=1e16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite update"):
                est.update([1e-8], 1e305)
        np.testing.assert_array_equal(est.beta, [0.0])
        np.testing.assert_array_equal(est.P, [[1e16]])
        assert est.t == 0

    def test_update_downdates_covariance_in_its_own_buffer(self):
        # The state is one buffer, downdated in place; P is a snapshot of
        # it, which the next update leaves as it was.
        rng = np.random.default_rng(17)
        est = KalmanEstimator(6, vomega=0.4)
        state = est._cov
        for _ in range(3):
            before = est.P
            snapshot = before.copy()
            est.update(rng.normal(size=6), rng.normal())
            assert est._cov is state
            np.testing.assert_array_equal(before, snapshot)
            assert not np.array_equal(est.P, before)

    def test_loops_kernel_tracks_blas_kernel(self):
        """The float step against the numpy step it shadows, one step at a
        time from the numpy step's state, at every width it serves:
        bitwise at p = 1, where each sum has one term; from p = 2 to
        1e-12, as numpy's dot products may fuse or reorder theirs.  At
        p = 17 the float step is the reference for the BLAS step, which
        keeps P's lower triangle alone.

        Each output's gap is taken against the size of the terms it is
        summed from, since a sum that cancels keeps only their rounding:
        e against |y| + |x|'|beta|, q against |x|'|R||x| + 1 (R = P +
        vomega I), K against |R||x| / q, beta' against |beta| + |e||R||x|
        / q and P' against R.  The worst gaps here were 3.0e-15 below
        p = 6 and 1.2e-15 at p = 17; over seeds 0-9 they reached 2.2e-14
        and 2.7e-14, 37 times inside the bound."""
        rng = np.random.default_rng(20)
        worst = 0.0
        for p in (*range(1, estimator_module._NUMPY_MIN_P), 17):
            lower = np.tri(p, dtype=bool)
            for scale in (1e-3, 1.0, 1e3):
                for delta in (1e-6, 0.9, 0.9999):
                    vomega = 1.0 / Smoothing(delta).mu
                    P = DEFAULT_PRIOR_SCALE * np.eye(p)
                    beta = np.zeros(p)
                    for _ in range(100):
                        x = scale * rng.normal(size=p)
                        y = float(rng.normal() + x.sum())
                        P2 = np.where(lower, P, P.T)
                        R = P2 + vomega * np.eye(p)
                        Rx_terms = np.abs(R) @ np.abs(x)
                        s1, b1, e1, q1, K1 = _kf_step_impl(P, beta, x, y, vomega)
                        s2, b2, e2, q2, K2 = _kf_step_loops(P2, beta, x, y, vomega)
                        assert s1 == s2 == estimator_module._ACCEPTED
                        assert b2.shape == K2.shape == (p,)
                        np.testing.assert_array_equal(P2, P2.T)
                        if p == 1:
                            assert (e1, q1) == (e2, q2)
                            for a1, a2 in ((b1, b2), (K1, K2), (P, P2)):
                                np.testing.assert_array_equal(a1, a2)
                        K_size = Rx_terms.max() / q1
                        worst = max(
                            worst,
                            abs(e2 - e1) / (abs(y) + np.abs(x) @ np.abs(beta)),
                            abs(q2 - q1) / (np.abs(x) @ Rx_terms + 1.0),
                            np.abs(K2 - K1).max() / K_size,
                            np.abs(b2 - b1).max() / (np.abs(beta).max() + abs(e1) * K_size),
                            np.abs(P2 - np.where(lower, P, P.T)).max() / np.abs(R).max(),
                        )
                        beta = b1
        assert worst < 1e-12


class TestBlockStep:
    """The block step takes a block of rows as one: each row's
    coefficients, innovation and forecast variance are those of update, to
    rounding, and a block it cannot step leaves the state as it was."""

    @pytest.mark.parametrize("p", [1, 3, 8, 15, 16, 17, 64])
    def test_engine_matches_row_steps(self, p):
        # The engine (blocks once the prior no longer dominates) against
        # update alone, over regressor scales and deltas.  Gaps are taken
        # relative to the largest magnitude of each output, and for the
        # spreads y - x.beta, to that of the terms |y| + |x|.|beta|, since
        # at scale 1e3 the two nearly cancel.  The worst gaps measured were
        # betas 1.9e-12 (p = 64, scale 1, delta 1e-6), e 7.1e-13 (the same),
        # Q 1.1e-14 (the same) and spreads 6.5e-12 (p = 1, scale 1e3, delta
        # 0.9999): the bound holds a margin of 15.
        returns, _ = make_market(seed=60 + p, steps=400, n_streams=p)
        for scale in (1e-3, 1.0, 1e3):
            regressors = Regressors(
                values=returns.features * scale, ready=np.ones(len(returns), bool)
            )
            for delta in (1e-6, 0.2, 0.9, 0.9999):
                config = EstimatorConfig(delta)
                spreads, [(betas, e, q)] = with_coefficients(
                    returns, [config], regressors
                )
                kf = KalmanEstimator.from_smoothing(p, Smoothing(delta))
                rows = np.empty_like(betas)
                row_e, row_q, row_spreads = (np.empty(len(returns)) for _ in range(3))
                for i, (x, y) in enumerate(zip(regressors.values, returns.target)):
                    diag = kf.update(x, y)
                    rows[i], row_e[i], row_q[i] = kf.beta, diag.innovation, diag.forecast_var
                    row_spreads[i] = y - kf.beta @ x
                terms = np.abs(returns.target) + np.einsum(
                    "ij,ij->i", np.abs(regressors.values), np.abs(rows)
                )
                gaps = [
                    np.abs(got - want).max() / np.abs(size).max()
                    for got, want, size in [
                        (betas, rows, rows),
                        (e, row_e, row_e),
                        (q, row_q, row_q),
                        (spreads[:, 0], row_spreads, terms),
                    ]
                ]
                assert max(gaps) <= 1e-10, (scale, delta, gaps)

    def test_a_rejection_is_the_row_steps_on_the_block_path(self, monkeypatch):
        # A prior this wide drives delta 0.9's forecast variance below zero
        # within the first rows.  With every row offered to the block step
        # first, the refused block's rows step alone and the same row is
        # rejected, on the same date.
        returns, _ = make_market(seed=0, steps=300)
        regressors = Regressors(returns.features, np.ones(len(returns), bool))
        grid = [EstimatorConfig(delta=0.9, prior_scale=1e20)]
        messages = []
        refused = []
        block = estimator_module._kf_block_impl

        def recorded(P, beta, X, Y, vomega, betas):
            result = block(P, beta, X, Y, vomega, betas)
            if result is None:
                refused.append(len(X))
            return result

        monkeypatch.setattr(estimator_module, "_kf_block_impl", recorded)
        for limit in (0.0, np.inf):
            monkeypatch.setattr(estimator_module, "BLOCK_MAX_Q", limit)
            with pytest.raises(DataError, match="rejected at delta 0.9: ") as exc:
                estimate_spreads(returns, grid, regressors)
            messages.append(str(exc.value))
        assert refused
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("p", [3, 17])
    def test_a_refused_block_leaves_the_state(self, p):
        # The block step refuses a block it cannot factor, or one whose row
        # fails the row step's checks, and leaves P and beta as they were.
        rng = np.random.default_rng(p)
        est = KalmanEstimator(p, vomega=0.3, prior_scale=1.0)
        est.update(rng.normal(size=p), 0.2)
        X, Y = rng.normal(size=(5, p)), rng.normal(size=5)
        for bad in ("indefinite", "nan-y"):
            P = est._cov.copy()
            if bad == "indefinite":     # set by hand: no factor exists
                P[...] = -10.0 * np.eye(p)
            Y_bad = Y.copy()
            if bad == "nan-y":
                Y_bad[3] = np.nan
            state = [P.copy(), est.beta.copy()]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                refused = _kf_block_impl(P, est.beta, X, Y_bad, est.vomega, np.empty((5, p)))
            assert refused is None
            np.testing.assert_array_equal(P, state[0])
            np.testing.assert_array_equal(est.beta, state[1])
        out = np.empty((5, p))
        e, q = est.update_block(X, Y, out)
        assert e.shape == q.shape == (5,)
        assert est.t == 6
        np.testing.assert_array_equal(est.beta, out[-1])
        if p < estimator_module._BLAS_MIN_P:     # numpy keeps both triangles
            np.testing.assert_array_equal(est._cov, est._cov.T)

    @pytest.mark.parametrize("how", ["one", "block"])
    @pytest.mark.parametrize(
        "x, y",
        [([np.inf, 1.0, 0.0], 1.0), ([np.nan, 0.0, 0.0], 1.0), ([1.0, 2.0, 3.0], np.inf)],
        ids=["inf-x", "nan-x", "inf-y"],
    )
    def test_non_finite_observation_rejected_and_state_kept(self, how, x, y):
        # A block steps its rows before the bad one, then rejects it as
        # update does, leaving the state those rows left.
        first, good = ([0.1, -0.2, 0.3], 0.5), ([0.2, 0.1, -0.1], 0.1)
        est, ref = (KalmanEstimator(3, vomega=0.3, prior_scale=1.0) for _ in range(2))
        est.update(*first)
        for row in [first, good] if how == "block" else [first]:
            ref.update(*row)
        out = np.empty((2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectedStep, match="x and y must be finite"):
                if how == "one":
                    est.update(x, y)
                else:
                    est.update_block(np.array([good[0], x]), [good[1], y], out)
        np.testing.assert_array_equal(est.P, ref.P)
        np.testing.assert_array_equal(est.beta, ref.beta)
        assert est.t == ref.t
        if how == "block":
            np.testing.assert_array_equal(out[0], ref.beta)


def _refuse_blocks(monkeypatch, kernel):
    """Make the block step refuse every block, if ``kernel`` says so."""
    if kernel == "refused":
        monkeypatch.setattr(estimator_module, "_kf_block_impl", lambda *args: None)


def _assert_same_state(est, ref, out, rows, exact):
    """``est`` and ``out`` as ``ref`` left them after stepping ``rows``
    (coefficient rows): bit for bit, or to rounding of each one's
    largest entry."""
    assert est.t == ref.t
    for got, want in ((est.beta, ref.beta), (est.P, ref.P), (out, rows)):
        if exact:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


class TestBlockContract:
    """update_block steps a run of rows as that many update calls would, to
    rounding, whether the block step takes its rows or refuses them; a bad
    row raises update's rejection, with the rows before it stepped."""

    @pytest.mark.parametrize("kernel", ["allowed", "refused"])
    @pytest.mark.parametrize("p", [3, 17])
    def test_a_block_is_its_rows_updates(self, monkeypatch, p, kernel):
        # 150 rows: the first alone, while the prior dominates, then blocks
        # of at most 64 rows.  A refused block's rows step through update,
        # so the two agree bit for bit.
        _refuse_blocks(monkeypatch, kernel)
        returns, _ = make_market(seed=70 + p, steps=151, n_streams=p)
        X, Y = returns.features, returns.target
        est, ref = (KalmanEstimator.from_smoothing(p, Smoothing(0.9)) for _ in range(2))
        out = np.empty_like(X)
        e, q = est.update_block(X, Y, out)
        rows = np.empty_like(X)
        row_e, row_q = np.empty((2, len(X)))
        for i, (x, y) in enumerate(zip(X, Y)):
            diag = ref.update(x, y)
            rows[i], row_e[i], row_q[i] = ref.beta, diag.innovation, diag.forecast_var
        _assert_same_state(est, ref, out, rows, exact=kernel == "refused")
        np.testing.assert_allclose(e, row_e, rtol=0, atol=1e-10 * np.abs(row_e).max())
        np.testing.assert_allclose(q, row_q, rtol=1e-10)

    @pytest.mark.parametrize("kernel", ["allowed", "refused"])
    @pytest.mark.parametrize("bad", ["nan-y", "wide-prior"])
    @pytest.mark.parametrize("p", [3, 17])
    def test_a_bad_row_rejects_after_the_rows_before_it(self, monkeypatch, p, bad, kernel):
        # nan-y: row 70 of 100, after a block of 64 rows the block step
        # takes.  wide-prior: a prior of 1e20 drives delta 0.9's forecast
        # variance below zero within the first rows (row 35 at p = 3 on
        # seed 5, row 21 at p = 17 on seed 0).
        _refuse_blocks(monkeypatch, kernel)
        if bad == "nan-y":
            returns, _ = make_market(seed=80 + p, steps=101, n_streams=p)
            X, Y = returns.features, returns.target.copy()
            Y[70] = np.nan
            prior = DEFAULT_PRIOR_SCALE
        else:
            returns, _ = make_market(seed=5 if p == 3 else 0, steps=300, n_streams=p)
            X, Y = returns.features, returns.target
            prior = 1e20
        est, ref = (
            KalmanEstimator.from_smoothing(p, Smoothing(0.9), prior_scale=prior)
            for _ in range(2)
        )
        rows = []
        with pytest.raises(RejectedStep) as want:
            for x, y in zip(X, Y):
                ref.update(x, y)
                rows.append(ref.beta)
        k = ref.t
        assert 0 < k < len(X)
        out = np.empty_like(X)
        with pytest.raises(RejectedStep) as got:
            est.update_block(X, Y, out)
        assert str(got.value) == str(want.value)
        assert est.t == k
        _assert_same_state(est, ref, out[:k], np.array(rows), exact=kernel == "refused")

    @pytest.mark.parametrize("p", [3, 20])
    def test_an_empty_block_steps_nothing(self, p):
        est = KalmanEstimator(p, vomega=0.3, prior_scale=1.0)
        est.update(np.ones(p), 0.5)
        state = [est.P, est.beta.copy(), est.t]
        e, q = est.update_block(np.empty((0, p)), np.empty(0), np.empty((0, p)))
        assert e.shape == q.shape == (0,)
        np.testing.assert_array_equal(est.P, state[0])
        np.testing.assert_array_equal(est.beta, state[1])
        assert est.t == state[2]

    @pytest.mark.parametrize(
        "layout", ["fortran", "strided", "float32", "short", "list"]
    )
    @pytest.mark.parametrize("p", [3, 20])
    def test_out_must_be_a_c_contiguous_float64_block(self, p, layout):
        # From p = 16 the block step writes through out; a copy of it (a
        # Fortran-ordered or strided out) would leave the coefficient rows
        # unwritten and commit a wrong state.  Every such out is refused
        # before any state changes.
        rng = np.random.default_rng(p)
        first, X, Y = rng.normal(size=p), rng.normal(size=(10, p)), rng.normal(size=10)
        est, ref = (KalmanEstimator(p, vomega=0.3, prior_scale=1.0) for _ in range(2))
        est.update(first, 0.2)
        out = {
            "fortran": lambda: np.zeros((10, p), order="F"),
            "strided": lambda: np.zeros((10, 2 * p))[:, ::2],
            "float32": lambda: np.zeros((10, p), dtype=np.float32),
            "short": lambda: np.zeros((9, p)),
            "list": lambda: np.zeros((10, p)).tolist(),
        }[layout]()
        state = [est.P, est.beta.copy(), est.t]
        with pytest.raises(ValueError, match="C-contiguous float64"):
            est.update_block(X, Y, out)
        np.testing.assert_array_equal(est.P, state[0])
        np.testing.assert_array_equal(est.beta, state[1])
        assert est.t == state[2]
        # A C-ordered out takes the rows the updates would give.
        good = np.empty((10, p))
        est.update_block(X, Y, good)
        ref.update(first, 0.2)
        rows = []
        for x, y in zip(X, Y):
            ref.update(x, y)
            rows.append(ref.beta)
        _assert_same_state(est, ref, good, np.array(rows), exact=False)


class TestFilterBank:
    """A grid of deltas is a bank of filters, one per delta, each stepped
    in a pass of its own: each filter reaches the state it reaches alone,
    bit for bit, and one filter's rejection rejects the run."""

    VOMEGA = (0.25, 4.0, 0.02, 1.0)

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_each_filter_matches_its_run_alone_bitwise(self, p):
        returns, _ = make_market(seed=30 + p, steps=200, n_streams=p)
        regressors = Regressors(returns.features, np.ones(len(returns), bool))
        deltas = [1.0 / (1.0 + vomega) for vomega in self.VOMEGA]
        for order in (deltas, deltas[::-1]):
            grid = [EstimatorConfig(delta) for delta in order]
            spreads, paths = with_coefficients(returns, grid, regressors)
            for d, config in enumerate(grid):
                alone, [path] = with_coefficients(returns, [config], regressors)
                assert spreads[:, d].tobytes() == alone[:, 0].tobytes()
                for got, want in zip(paths[d], path):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [3, 8])
    def test_one_filter_rejecting_rejects_the_step_for_all(self, p):
        # Wherever the rejecting filter sits in the grid, the run fails on
        # the date that filter fails alone, and names its delta.  On seed 5
        # the wide prior is rejected at both widths.
        returns, _ = make_market(seed=5, steps=300, n_streams=p)
        regressors = Regressors(returns.features, np.ones(len(returns), bool))
        wide = EstimatorConfig(delta=0.9, prior_scale=1e20)
        with pytest.raises(DataError) as alone:
            estimate_spreads(returns, [wide], regressors)
        day = re.search(r"on (\S+) rejected", str(alone.value)).group(1)
        others = [EstimatorConfig(delta=0.2), EstimatorConfig(delta=0.5)]
        for place in range(3):
            grid = others[:place] + [wide] + others[place:]
            with pytest.raises(
                DataError, match=f"on {day} rejected at delta 0.9: "
            ):
                estimate_spreads(returns, grid, regressors)


class TestScaleEquivariance:
    """Every filter and smoother operation is linear or homogeneous in its
    inputs, and multiplying a double by a power of two is exact away from
    overflow and underflow, in any summation order.  So for ``c = 2**k``:

    * ``y -> c y`` gives betas and ``e`` times ``c``, with ``q`` and P
      unchanged;
    * ``x -> c x``, with ``vomega / c**2`` and ``prior_scale / c**2``, gives
      betas over ``c`` and P over ``c**2``, with ``e`` and ``q`` unchanged;

    bit for bit, with no tolerance.  A constant that ties the numerics to
    the data's units breaks them.  The widths sit either side of
    ``_NUMPY_MIN_P`` and ``_BLAS_MIN_P``, and at 432.  The smoother and
    the engine take delta, not ``vomega``, and ``mu`` cannot be scaled by
    ``c**2`` exactly through delta, so they are held to the ``y`` identity
    alone."""

    KS = (-40, -7, 9, 40)
    WIDTHS = (1, 3, 5, 6, 15, 16, 17, 64, 432)
    VOMEGA = 1.0 / Smoothing(0.9).mu
    DELTAS = (0.2, 0.9)

    @staticmethod
    def market(p):
        """``gen_market`` seed 1: 400 return rows, 300 at p = 432."""
        returns, _ = make_market(seed=1, steps=301 if p == 432 else 401, n_streams=p)
        return returns

    @staticmethod
    def filtered(xs, ys, vomega, prior_scale, chunk):
        """``(betas, e, q, P)`` of one filter over the rows: through
        ``update`` when ``chunk`` is None, else through ``update_block``
        called on ``chunk`` rows at a time."""
        kf = KalmanEstimator(xs.shape[1], vomega, prior_scale=prior_scale)
        betas = np.empty_like(xs)
        e, q = np.empty((2, len(ys)))
        if chunk is None:
            for i, (x, y) in enumerate(zip(xs, ys)):
                diag = kf.update(x, y)
                betas[i], e[i], q[i] = kf.beta, diag.innovation, diag.forecast_var
        else:
            for lo in range(0, len(ys), chunk):
                hi = lo + chunk
                e[lo:hi], q[lo:hi] = kf.update_block(xs[lo:hi], ys[lo:hi], betas[lo:hi])
        return betas, e, q, kf.P

    @staticmethod
    def assert_bits(got, want, names, k):
        for name, a, b in zip(names, got, want):
            assert a.tobytes() == b.tobytes(), (name, k)

    @pytest.mark.parametrize(
        "chunk", [None, 18, 400], ids=["update", "blocks-of-18", "one-call"]
    )
    @pytest.mark.parametrize("p", WIDTHS)
    def test_filter_identities(self, p, chunk):
        returns = self.market(p)
        xs = np.ascontiguousarray(returns.features)
        ys = returns.target.copy()
        prior = DEFAULT_PRIOR_SCALE
        betas, e, q, P = self.filtered(xs, ys, self.VOMEGA, prior, chunk)
        names = ("betas", "e", "q", "P")
        for k in self.KS:
            c = 2.0**k
            got = self.filtered(xs, c * ys, self.VOMEGA, prior, chunk)
            self.assert_bits(got, (c * betas, c * e, q, P), names, k)
            got = self.filtered(c * xs, ys, self.VOMEGA / c**2, prior / c**2, chunk)
            self.assert_bits(got, (betas / c, e, q, P / c**2), names, k)

    @pytest.mark.parametrize("p", [p for p in WIDTHS if p <= 64])
    def test_smoother_y_identity(self, p):
        returns = self.market(p)
        xs, ys = returns.features, returns.target
        for delta in self.DELTAS:
            path = fls_smooth_batch(xs, ys, Smoothing(delta))
            for k in self.KS:
                c = 2.0**k
                got = fls_smooth_batch(xs, c * ys, Smoothing(delta))
                assert got.tobytes() == (c * path).tobytes(), (delta, k)

    @pytest.mark.parametrize("p", WIDTHS)
    def test_engine_y_identity(self, p):
        returns = self.market(p)
        grid = [EstimatorConfig(delta) for delta in self.DELTAS]
        spreads, paths = with_coefficients(returns, grid)
        names = ("betas", "e", "q")
        for k in self.KS:
            c = 2.0**k
            scaled = dataclasses.replace(returns, target=c * returns.target)
            got_spreads, got_paths = with_coefficients(scaled, grid)
            assert got_spreads.tobytes() == (c * spreads).tobytes(), k
            for (betas, e, q), got in zip(paths, got_paths):
                self.assert_bits(got, (c * betas, c * e, q), names, k)


class TestKernelChoice:
    """A filter's row step is chosen by its width alone: the float step
    _kf_step_loops up to the crossover (p = 5), then _kf_step_impl, on
    numpy below _BLAS_MIN_P and BLAS from it.  The block step is
    _kf_block_impl at every width, and update_block takes it once the
    forecast variance is at most BLOCK_MAX_Q."""

    ROW_STEPS = {
        1: "_kf_step_loops",
        5: "_kf_step_loops",
        6: "_kf_step_impl",
        15: "_kf_step_impl",
        16: "_kf_step_impl",
        432: "_kf_step_impl",
    }

    def spy_on_steps(self, monkeypatch):
        calls = []
        for name in ("_kf_step_impl", "_kf_step_loops", "_kf_block_impl"):
            step = getattr(estimator_module, name)

            def recorded(*args, name=name, step=step):
                calls.append(name)
                return step(*args)

            monkeypatch.setattr(estimator_module, name, recorded)
        return calls

    def test_each_width_steps_with_one_kernel(self, monkeypatch):
        calls = self.spy_on_steps(monkeypatch)
        rng = np.random.default_rng(40)
        for p, row in self.ROW_STEPS.items():
            est = KalmanEstimator(p, vomega=0.5, prior_scale=1.0)
            est.update(rng.normal(size=p), 0.1)
            fls_smooth_batch(rng.normal(size=(3, p)), rng.normal(size=3), Smoothing(0.5))
            est.update_block(rng.normal(size=(2, p)), rng.normal(size=2), np.empty((2, p)))
            assert calls == [row] * 4 + ["_kf_block_impl"], p
            calls.clear()


class TestOlsFit:
    """The oracle's static fit, used by the small-delta acceptance check."""

    def test_matches_lstsq(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(100, 3))
        ys = xs @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=100)
        ref, *_ = np.linalg.lstsq(xs, ys, rcond=None)
        np.testing.assert_allclose(ols_fit(xs, ys), ref, atol=1e-10)


class TestCoefficientCsv:
    def test_round_trips_exact_values(self, tmp_path):
        rng = np.random.default_rng(15)
        betas = rng.normal(size=(7, 2))
        es = rng.normal(size=7)
        qs = rng.uniform(1.0, 2.0, size=7)
        out = tmp_path / "coef.csv"
        write_coefficient_csv(out, 2, [(betas, es, qs)])
        lines = out.read_text().splitlines()
        assert lines[0] == "t,beta_1,beta_2,e,Q"
        assert len(lines) == 8
        for t, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == t + 1
            assert float(cells[1]) == betas[t, 0]
            assert float(cells[2]) == betas[t, 1]
            assert float(cells[3]) == es[t]
            assert float(cells[4]) == qs[t]

    def test_diagnostic_length_mismatch_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_coefficient_csv(
                tmp_path / "bad.csv", 1, [(np.zeros((5, 1)), np.zeros(4), np.zeros(5))]
            )
        with pytest.raises(ValueError, match=r"betas must be \(k, 2\)"):
            write_coefficient_csv(
                tmp_path / "bad.csv", 2, [(np.zeros((5, 1)), np.zeros(5), np.zeros(5))]
            )

    # The table below has 6 columns, so the writer takes BLOCK_CELLS // 6
    # rows a block: these lengths end just before, on and after a boundary.
    @pytest.mark.parametrize(
        "T",
        [
            0,
            1,
            BLOCK_CELLS // 6 - 1,
            BLOCK_CELLS // 6,
            BLOCK_CELLS // 6 + 1,
        ],
    )
    def test_block_writes_match_one_shot_formatting(self, tmp_path, T):
        rng = np.random.default_rng(T)
        betas = rng.normal(size=(T, 3)) * 10.0 ** rng.integers(-300, 300, size=(T, 3))
        es = rng.normal(size=T)
        qs = rng.uniform(1.0, 2.0, size=T)
        # Rows where the regression did not run (svd warm-up) hold NaN.
        betas[: T // 3] = np.nan
        es[: T // 3] = np.nan
        qs[: T // 3] = np.nan
        out = tmp_path / "coef.csv"
        row_fmt = "%d" + ",%.17g" * 5 + "\n"
        whole = np.column_stack([betas, es, qs]).tolist()
        expected = "t,beta_1,beta_2,beta_3,e,Q\n" + "".join(
            row_fmt % (t, *row) for t, row in enumerate(whole, 1)
        )
        # One block, then uneven blocks that straddle the writer's own.
        cuts = [0, 1, 2, T // 2 + 1, T]
        splits = [
            [slice(0, T)],
            [slice(a, b) for a, b in zip(cuts, cuts[1:])],
        ]
        for split in splits:
            write_coefficient_csv(out, 3, [(betas[r], es[r], qs[r]) for r in split])
            assert out.read_bytes() == expected.encode("ascii")

    def test_peak_memory_stays_small_on_a_wide_path(self, tmp_path):
        # 999 x 434 cells as Python floats and text would take over 17 MB;
        # block by block the writer needs one block's byte matrix (0.375
        # MB) and about as much again of scratch.  The peak measured
        # 0.85 MB (1.67 MB with a keep-mask and fresh arithmetic
        # temporaries), bounded here at 1.0 MB.
        rng = np.random.default_rng(5)
        betas = rng.normal(size=(999, 432))
        es = rng.normal(size=999)
        qs = rng.uniform(1.0, 2.0, size=999)
        rows = [(betas, es, qs)]
        write_coefficient_csv(tmp_path / "wide.csv", 432, rows)    # builds the tables
        tracemalloc.start()
        try:
            write_coefficient_csv(tmp_path / "wide.csv", 432, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6
