"""Unit and property tests for the recursive estimators."""

import tracemalloc
import warnings

import numpy as np
import pytest

import flexls.estimator as estimator_module
from flexls.estimator import (
    BANK_MAX_P,
    DEFAULT_PRIOR_SCALE,
    FlsEstimator,
    KalmanEstimator,
    RejectedStep,
    Smoothing,
    UnderdeterminedError,
    _kf_bank,
    _kf_bank_loops,
    _kf_bank_step,
    _kf_step,
    _kf_step_impl,
    _kf_step_loops,
    filter_passes,
    fls_smooth_batch,
    write_coefficient_csv,
)
from flexls.ingest import to_log_returns
from flexls.synth import MarketConfig, gen_market
from flexls.util import BLOCK_CELLS

from .oracle import ols_fit, penalized_path_direct, path_cost


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
        """Scalar update worked out by hand: P0=1, both noises 1, x=1, y=3."""
        est = KalmanEstimator(1, vomega=1.0, veps=1.0, P0=np.array([[1.0]]))
        diag = est.update([1.0], 3.0)
        assert diag.innovation == 3.0
        assert diag.forecast_var == 3.0
        assert diag.gain[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
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

    def test_covariance_symmetric_where_dger_is_not(self, monkeypatch):
        # Wide enough that the probe's verdict picks the downdate form.
        rng = np.random.default_rng(19)
        p = 17
        assert p >= estimator_module._DGER_MIN_P
        dger, _ = estimator_module._blas_dger()
        xs, ys = rng.normal(size=(100, p)), rng.normal(size=100)
        paths = []
        for symmetric in (True, False):
            monkeypatch.setattr(
                estimator_module, "_blas_dger", lambda s=symmetric: (dger, s)
            )
            est = KalmanEstimator(p, vomega=0.5, prior_scale=1.0)
            betas = []
            for x, y in zip(xs, ys):
                est.update(x, y)
                np.testing.assert_array_equal(est.P, est.P.T)
                betas.append(est.beta)
            paths.append(np.array(betas))
        np.testing.assert_allclose(paths[1], paths[0], rtol=1e-12, atol=1e-14)

    def test_dger_probe_catches_asymmetric_rounding(self):
        real_dger, symmetric = estimator_module._blas_dger()

        def lopsided_dger(alpha, x, y, a, overwrite_a):
            real_dger(alpha, x, y, a=a, overwrite_a=overwrite_a)
            a[-1, 0] = np.nextafter(a[-1, 0], np.inf)   # one tail entry
            return a

        assert estimator_module._dger_is_symmetric(real_dger) == symmetric
        assert not estimator_module._dger_is_symmetric(lopsided_dger)

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
        "step",
        [_kf_step_impl, _kf_step, _kf_step_loops],
        ids=["impl", "step", "loops"],
    )
    def test_kernel_downdates_only_the_covariance(self, step):
        rng = np.random.default_rng(16)
        p = 5
        a = rng.normal(size=(p, p))
        P = a @ a.T
        beta = rng.normal(size=p)
        x = rng.normal(size=p)
        P_then, beta_then, x_then = P.copy(), beta.copy(), x.copy()
        status, beta_new, e, q, K = step(P, beta, x, 0.7, 1.0, 0.3)
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
        "step",
        [_kf_step_impl, _kf_step, _kf_step_loops],
        ids=["impl", "step", "loops"],
    )
    def test_kernel_leaves_its_inputs_untouched(self, step):
        """A rejected step writes none of its inputs."""
        P = np.array([[2.0, 0.5], [0.5, 1.0]])
        cases = [
            (estimator_module._NONFINITE, P, np.full(2, 1e200), 1.0, 1.0),
            (estimator_module._NONFINITE, P, np.full(2, 1e-8), 1e305, 1e-14),
            (estimator_module._NONPOSITIVE, -10.0 * P, np.ones(2), 1.0, 1.0),
        ]
        for expected, P0, x, y, veps in cases:
            P, beta = P0.copy(), np.array([0.1, -0.2])
            before = [v.copy() for v in (P, beta, x)]
            with np.errstate(all="ignore"):   # the interpreted loops warn
                status = step(P, beta, x, y, veps, 0.3)[0]
            assert status == expected
            for now, then in zip((P, beta, x), before):
                np.testing.assert_array_equal(now, then)

    def test_indefinite_prior_rejected_without_warning(self):
        with pytest.raises(ValueError, match="P0 must be positive semidefinite"):
            KalmanEstimator(1, vomega=0.0, P0=np.array([[-10.0]]))
        # The kernel handed that prior gets q = x'(P + vomega I)x + veps = -9
        # and takes no square root of it, so it warns about nothing.
        P = np.array([[-10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, beta_new, e, q, K = _kf_step_impl(
                P, np.zeros(1), np.ones(1), 1.0, 1.0, 0.0
            )
        assert status == estimator_module._NONPOSITIVE
        assert beta_new.shape == K.shape == (1,)
        assert e == 1.0
        assert q == -9.0
        np.testing.assert_array_equal(P, [[-10.0]])

    @pytest.mark.parametrize(
        "P0, message",
        [
            ([[np.nan]], "P0 must be finite"),
            ([[-10.0]], "P0 must be positive semidefinite"),
            ([[1.0, 2.0], [2.0, 1.0]], "P0 must be positive semidefinite"),
        ],
        ids=["nan", "negative", "indefinite"],
    )
    def test_bad_prior_rejected_at_construction(self, P0, message):
        P0 = np.array(P0)
        with pytest.raises(ValueError, match=message):
            KalmanEstimator(len(P0), vomega=1.0, P0=P0)

    def test_semidefinite_priors_construct(self):
        KalmanEstimator(2, vomega=1.0)
        est = KalmanEstimator(2, vomega=1.0, P0=np.zeros((2, 2)))
        np.testing.assert_array_equal(est.P, np.zeros((2, 2)))
        est = KalmanEstimator.fls_equivalent(3, Smoothing(0.5), s0_scale=1.0)
        np.testing.assert_array_equal(est.P, np.zeros((3, 3)))

    def test_forecast_variance_positive(self):
        est = KalmanEstimator(2, vomega=0.0, veps=0.5)
        diag = est.update([0.0, 0.0], 1.0)   # zero regressor still has veps
        assert diag.forecast_var == pytest.approx(0.5)

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
        assert est.veps == 1.0

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
        with pytest.raises(ValueError):
            KalmanEstimator(2, vomega=1.0, veps=0.0)
        with pytest.raises(ValueError):
            KalmanEstimator(2, vomega=1.0, P0=np.eye(3))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_prior_scale(self, bad):
        # inf would build a P of inf on the diagonal and nan off it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="prior_scale must be finite"):
                KalmanEstimator(2, vomega=1.0, prior_scale=bad)

    def test_nonpositive_forecast_variance_raises_and_keeps_state(self):
        est = KalmanEstimator(2, vomega=1.0)
        est.update([1.0, 0.5], 1.0)
        # A covariance set by hand can be indefinite: q = -10.25 here.
        est.P = np.array([[-10.0, 0.0], [0.0, -10.0]])
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
        # e and q are finite here, but e * K overflows: with x = sqrt(veps/P)
        # the gain is sqrt(P/veps)/2 = 5e7, and the innovation is 1e305.
        est = KalmanEstimator(1, vomega=0.0, veps=1e-10, prior_scale=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite update"):
                est.update([1e-8], 1e305)
        np.testing.assert_array_equal(est.beta, [0.0])
        np.testing.assert_array_equal(est.P, [[1e6]])
        assert est.t == 0

    def test_update_downdates_covariance_in_its_own_buffer(self):
        rng = np.random.default_rng(17)
        est = KalmanEstimator(6, vomega=0.4)
        P = est.P
        for _ in range(3):
            before = est.P.copy()
            est.update(rng.normal(size=6), rng.normal())
            assert np.shares_memory(est.P, P)
            assert not np.array_equal(est.P, before)

    def test_fortran_ordered_covariance_gives_the_same_path(self):
        rng = np.random.default_rng(18)
        p = 7
        a = rng.normal(size=(p, p))
        P0 = a @ a.T
        xs = rng.normal(size=(40, p))
        ys = rng.normal(size=40)

        def run(P0, refortran_at=None):
            est = KalmanEstimator(p, vomega=0.2, P0=P0)
            betas = []
            for i, (x, y) in enumerate(zip(xs, ys)):
                if i == refortran_at:
                    est.P = np.asfortranarray(est.P)
                est.update(x, y)
                betas.append(est.beta)
            return np.array(betas), est.P

        betas_c, P_c = run(np.ascontiguousarray(P0))
        for betas, P in (run(np.asfortranarray(P0)), run(P0, refortran_at=20)):
            np.testing.assert_array_equal(betas, betas_c)
            np.testing.assert_array_equal(P, P_c)

    def test_loops_kernel_tracks_blas_kernel(self):
        # From _DGER_MIN_P the interpreted kernel downdates with dger, which
        # may fuse multiply and add, so the two forms agree to rounding;
        # below it both subtract the same products, so they agree bitwise.
        rng = np.random.default_rng(20)
        for p in (6, 17):
            P1, P2 = np.eye(p) * 5.0, np.eye(p) * 5.0
            b1 = b2 = np.zeros(p)
            for _ in range(100):
                x = rng.normal(size=p)
                y = float(rng.normal())
                s1, b1, e1, q1, K1 = _kf_step_impl(P1, b1, x, y, 1.0, 0.7)
                s2, b2, e2, q2, K2 = _kf_step_loops(P2, b2, x, y, 1.0, 0.7)
                assert s1 == s2 == estimator_module._ACCEPTED
                np.testing.assert_array_equal(P2, P2.T)
                np.testing.assert_allclose(b2, b1, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(P2, P1, rtol=1e-12, atol=1e-14)
                assert e2 == pytest.approx(e1, rel=1e-12, abs=1e-14)
                if p < estimator_module._DGER_MIN_P:
                    np.testing.assert_array_equal(P1, P2)
                    np.testing.assert_array_equal(b1, b2)

    def test_jit_kernel_matches_plain_python_bitwise(self):
        if _kf_step is _kf_step_impl:
            pytest.skip("JIT compiler unavailable; the interpreted kernel runs")
        rng = np.random.default_rng(13)
        p = 4
        P1, P2 = np.eye(p) * 5.0, np.eye(p) * 5.0
        b1 = b2 = np.zeros(p)
        for _ in range(50):
            x = rng.normal(size=p)
            y = float(rng.normal())
            s1, b1, e1, q1, K1 = _kf_step(P1, b1, x, y, 1.0, 0.7)
            s2, b2, e2, q2, K2 = _kf_step_loops(P2, b2, x, y, 1.0, 0.7)
            assert s1 == s2 == estimator_module._ACCEPTED
            assert b1.shape == K1.shape == (p,)
            assert np.array_equal(b1, b2)
            assert np.array_equal(K1, K2)
            assert np.array_equal(P1, P2)
            assert e1 == e2 and q1 == q2


class TestFilterBank:
    """A vomega sequence builds a bank: one update steps every filter, and
    each filter's state is the one it reaches alone, bit for bit."""

    VOMEGA = (0.25, 4.0, 0.02, 1.0)

    def run_alone(self, p, vomega, xs, ys):
        est = KalmanEstimator(p, vomega=vomega)
        rows = [est.update(x, y) + (est.beta,) for x, y in zip(xs, ys)]
        return rows, est

    @pytest.mark.parametrize("p", [1, 3, BANK_MAX_P])
    def test_each_filter_matches_its_run_alone_bitwise(self, p):
        rng = np.random.default_rng(30 + p)
        xs, ys = rng.normal(size=(60, p)), rng.normal(size=60)
        for order in (self.VOMEGA, self.VOMEGA[::-1]):
            bank = KalmanEstimator(p, vomega=order)
            rows = [bank.update(x, y) + (bank.beta,) for x, y in zip(xs, ys)]
            assert bank.P.shape == (4, p, p) and bank.t == 60
            for d, vomega in enumerate(order):
                alone, est = self.run_alone(p, vomega, xs, ys)
                for (e, q, K, beta), (e1, q1, K1, beta1) in zip(rows, alone):
                    assert e[d] == e1 and q[d] == q1
                    assert K[d].tobytes() == K1.tobytes()
                    assert beta[d].tobytes() == beta1.tobytes()
                assert bank.P[d].tobytes() == est.P.tobytes()

    @pytest.mark.parametrize(
        "bank_step, step",
        [
            (_kf_bank_step, _kf_step_impl),
            (_kf_bank_loops, _kf_step_loops),
            (_kf_bank, _kf_step),
        ],
        ids=["impl", "loops", "live"],
    )
    def test_kernel_steps_a_bank_as_its_filters(self, bank_step, step):
        # The loops kernel, numba's, steps a bank filter by filter; the
        # interpreted one as stacks.  A rejection writes no filter.
        rng = np.random.default_rng(31)
        p, vomega = 4, np.array(self.VOMEGA)
        P = np.stack([np.eye(p) * (d + 1.0) for d in range(4)])
        beta = rng.normal(size=(4, p))
        singles = [(P[d].copy(), beta[d].copy()) for d in range(4)]
        for _ in range(30):
            x, y = rng.normal(size=p), float(rng.normal())
            status, beta, e, q, K = bank_step(P, beta, x, y, 1.0, vomega)
            assert list(status) == [estimator_module._ACCEPTED] * 4
            for d, (P1, b1) in enumerate(singles):
                s1, b1, e1, q1, K1 = step(P1, b1, x, y, 1.0, vomega[d])
                singles[d] = (P1, b1)
                assert e[d] == e1 and q[d] == q1
                np.testing.assert_array_equal(K[d], K1)
                np.testing.assert_array_equal(beta[d], b1)
                np.testing.assert_array_equal(P[d], P1)
        P[2] = -10.0 * np.eye(p)
        before = [P.copy(), beta.copy()]
        with np.errstate(all="ignore"):   # the interpreted loops warn
            status, beta_out, *_ = bank_step(P, beta, np.ones(p), 1.0, 1.0, vomega)
        assert list(status) == [0, 0, estimator_module._NONPOSITIVE, 0]
        np.testing.assert_array_equal(P, before[0])
        np.testing.assert_array_equal(beta_out, before[1])

    def test_bank_takes_a_prior_scale_per_filter(self):
        bank = KalmanEstimator(2, vomega=[0.5, 0.5], prior_scale=[1.0, 9.0])
        np.testing.assert_array_equal(bank.P, [np.eye(2), 9.0 * np.eye(2)])
        with pytest.raises(ValueError, match="prior_scale must be a number"):
            KalmanEstimator(2, vomega=[0.5, 0.5], prior_scale=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="prior_scale must be finite"):
            KalmanEstimator(2, vomega=[0.5, 0.5], prior_scale=[1.0, -2.0])
        with pytest.raises(ValueError, match="vomega must be a number"):
            KalmanEstimator(2, vomega=[[0.5]])

    @pytest.mark.parametrize("p", [3, BANK_MAX_P])
    def test_one_filter_rejecting_rejects_the_step_for_all(self, p):
        rng = np.random.default_rng(p)
        bank = KalmanEstimator(p, vomega=[0.3, 0.3, 0.3])
        bank.update(rng.normal(size=p), 0.2)
        # A covariance set by hand can be indefinite: filter 1's q < 0.
        bank.P[1] = -10.0 * np.eye(p)
        state = [bank.P.copy(), bank.beta.copy(), bank.t]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                RejectedStep, match="^forecast variance must stay positive"
            ) as rejected:
                bank.update(np.ones(p), 1.0)
        assert rejected.value.filter == 1
        np.testing.assert_array_equal(bank.P, state[0])
        np.testing.assert_array_equal(bank.beta, state[1])
        assert bank.t == state[2]

    def test_bank_holds_narrow_filters_only(self):
        assert filter_passes(BANK_MAX_P, 3) == [(0, 3)]
        assert filter_passes(BANK_MAX_P + 1, 3) == [(0, 1), (1, 2), (2, 3)]
        assert filter_passes(BANK_MAX_P + 1, 1) == [(0, 1)]
        KalmanEstimator(BANK_MAX_P, vomega=[0.3, 0.7])
        with pytest.raises(ValueError, match="a bank holds filters of at most"):
            KalmanEstimator(BANK_MAX_P + 1, vomega=[0.3, 0.7])
        KalmanEstimator(BANK_MAX_P + 1, vomega=0.3)

    @pytest.mark.parametrize("vomega", [0.3, [0.3, 0.7]], ids=["one", "bank"])
    @pytest.mark.parametrize(
        "x, y",
        [([np.inf, 1.0, 0.0], 1.0), ([np.nan, 0.0, 0.0], 1.0), ([1.0, 2.0, 3.0], np.inf)],
        ids=["inf-x", "nan-x", "inf-y"],
    )
    def test_non_finite_observation_rejected_and_state_kept(self, vomega, x, y):
        est = KalmanEstimator(3, vomega=vomega)
        est.update([0.1, -0.2, 0.3], 0.5)
        state = [est.P.copy(), est.beta.copy(), est.t]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x and y must be finite"):
                est.update(x, y)
        np.testing.assert_array_equal(est.P, state[0])
        np.testing.assert_array_equal(est.beta, state[1])
        assert est.t == state[2]


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
        write_coefficient_csv(out, betas, innovations=es, forecast_vars=qs)
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
                tmp_path / "bad.csv",
                np.zeros((5, 1)),
                innovations=np.zeros(4),
                forecast_vars=np.zeros(5),
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
        write_coefficient_csv(out, betas, innovations=es, forecast_vars=qs)
        row_fmt = "%d" + ",%.17g" * 5 + "\n"
        whole = np.column_stack([betas, es, qs]).tolist()
        expected = "t,beta_1,beta_2,beta_3,e,Q\n" + "".join(
            row_fmt % (t, *row) for t, row in enumerate(whole, 1)
        )
        assert out.read_bytes() == expected.encode("ascii")

    def test_peak_memory_stays_small_on_a_wide_path(self, tmp_path):
        # 999 x 434 cells as Python floats and text would take over 17 MB;
        # block by block the writer needs a small fraction of that.
        rng = np.random.default_rng(5)
        betas = rng.normal(size=(999, 432))
        es = rng.normal(size=999)
        qs = rng.uniform(1.0, 2.0, size=999)
        tracemalloc.start()
        try:
            write_coefficient_csv(
                tmp_path / "wide.csv", betas, innovations=es, forecast_vars=qs
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
