"""Tests for the streaming eigenvector tracker."""

import warnings

import numpy as np
import pytest

from flexls.eigentrack import EigenTracker, NotReadyError

from .oracle import batch_eigh_basis


def angle_deg(u, v):
    c = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.degrees(np.arccos(min(1.0, c))))


class TestConstruction:
    def test_more_components_than_dimensions_rejected(self):
        with pytest.raises(ValueError):
            EigenTracker(2, 3)

    def test_wide_configuration_valid(self):
        tr = EigenTracker(432, 3)
        assert tr.p == 432 and tr.k == 3 and not tr.ready

    @pytest.mark.parametrize("p,k,amnesia", [(0, 1, 0.0), (3, 0, 0.0), (3, 1, -1.0)])
    def test_bad_parameters_rejected(self, p, k, amnesia):
        with pytest.raises(ValueError):
            EigenTracker(p, k, amnesia)


class TestUpdate:
    def test_first_sample_seeds_and_scales(self):
        # Single sample r: the recursion collapses to r * ||r||.
        tr = EigenTracker(3, 1)
        tr.update([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(tr.h[0], [1.0, 0.0, 0.0])
        tr2 = EigenTracker(3, 1)
        tr2.update([0.0, 2.0, 0.0])
        np.testing.assert_array_equal(tr2.h[0], [0.0, 4.0, 0.0])
        # Amnesia does not weigh against the seed sample.
        tr3 = EigenTracker(2, 1, amnesia=2.0)
        tr3.update([0.1, 0.0])
        np.testing.assert_allclose(tr3.h[0], [0.01, 0.0], rtol=1e-15)

    def test_rank_one_stream_recovers_direction_exactly(self):
        v = np.array([3.0, -4.0, 0.0])
        tr = EigenTracker(3, 1)
        for _ in range(25):
            tr.update(v)
        g = tr.components()[0]
        # sign fix: loudest entry (the -4) made positive
        np.testing.assert_allclose(g, [-0.6, 0.8, 0.0], atol=1e-15)
        assert tr.eigenvalues[0] == pytest.approx(25.0)   # ||v||^2

    def test_matches_explicit_average(self):
        """Incremental weights reproduce the plain per-component average.

        Reference keeps the literal sum of u (u'g) terms and divides by the
        count, instead of folding the mean forward one sample at a time.
        """
        rng = np.random.default_rng(21)
        samples = rng.normal(size=(200, 4)) * np.sqrt([4.0, 1.0, 0.25, 0.1])
        k = 3
        tr = EigenTracker(4, k)
        sums = [np.zeros(4) for _ in range(k)]
        h = [None] * k
        counts = [0] * k
        active = 0
        for r in samples:
            tr.update(r)
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
            np.testing.assert_allclose(tr.h[j], h[j], rtol=0, atol=1e-12)

    def test_deflation_defect_stays_at_rounding_level(self):
        rng = np.random.default_rng(22)
        tr = EigenTracker(4, 3)
        scale = np.sqrt([4.0, 1.0, 0.25, 0.1])
        for _ in range(2000):
            defect = tr.update(rng.normal(size=4) * scale)
            assert defect <= 1e-10

    def test_converges_to_population_axes(self):
        rng = np.random.default_rng(23)
        samples = rng.normal(size=(5000, 2)) * np.sqrt([4.0, 1.0])
        tr = EigenTracker(2, 2)
        for r in samples:
            tr.update(r)
        g = tr.components()
        assert angle_deg(g[0], np.array([1.0, 0.0])) < 5.0
        assert angle_deg(g[1], np.array([0.0, 1.0])) < 10.0
        # Estimates track the batch eigendecomposition of the same sample.
        vals, vecs = batch_eigh_basis(samples, 2)
        np.testing.assert_allclose(tr.eigenvalues, vals, rtol=0.05)
        assert angle_deg(g[0], vecs[0]) < 1.0
        assert angle_deg(g[1], vecs[1]) < 2.0

    def test_scaling_inputs_scales_eigenvalues_quadratically(self):
        rng = np.random.default_rng(24)
        samples = rng.normal(size=(300, 3))
        a = EigenTracker(3, 2)
        b = EigenTracker(3, 2)
        for r in samples:
            a.update(r)
            b.update(2.0 * r)   # power of two: scaling is exact in binary
        np.testing.assert_array_equal(b.eigenvalues, 4.0 * a.eigenvalues)
        np.testing.assert_array_equal(a.components(), b.components())

    def test_duplicate_early_sample_defers_seeding(self):
        tr = EigenTracker(3, 2)
        tr.update([1.0, 1.0, 0.0])
        tr.update([1.0, 1.0, 0.0])   # deflates to zero: nothing to seed from
        assert not tr.ready
        tr.update([1.0, -1.0, 0.0])
        assert tr.ready

    def test_zero_first_sample_does_not_seed(self):
        tr = EigenTracker(2, 1)
        tr.update([0.0, 0.0])
        assert not tr.ready

    def test_rejects_bad_samples(self):
        tr = EigenTracker(3, 1)
        with pytest.raises(ValueError):
            tr.update([1.0, 2.0])
        with pytest.raises(ValueError):
            tr.update([1.0, np.nan, 0.0])


class TestProjection:
    def _converged_tracker(self, seed=26):
        rng = np.random.default_rng(seed)
        tr = EigenTracker(4, 2)
        scale = np.sqrt([4.0, 1.0, 0.25, 0.1])
        for _ in range(3000):
            tr.update(rng.normal(size=4) * scale)
        return tr

    def test_component_aligned_input(self):
        tr = self._converged_tracker()
        g = tr.components()
        out = tr.project(5.0 * g[0])
        assert out[0] == pytest.approx(5.0, abs=1e-12)
        # second coordinate limited by component cross-talk, not exact zero
        assert abs(out[1]) < 0.1

    def test_orthogonal_input_projects_to_zero(self):
        tr = self._converged_tracker()
        g = tr.components()
        r = np.array([0.3, -0.7, 1.1, 0.4])
        # The tracked rows are only approximately orthogonal to one another,
        # so build the complement with a least-squares projection, not
        # one-pass Gram-Schmidt.
        coeff = np.linalg.solve(g @ g.T, g @ r)
        r = r - g.T @ coeff
        np.testing.assert_allclose(tr.project(r), 0.0, atol=1e-10)

    def test_projection_before_warmup_raises(self):
        tr = EigenTracker(3, 2)
        tr.update([1.0, 0.0, 0.0])
        assert not tr.ready
        with pytest.raises(NotReadyError):
            tr.project([1.0, 0.0, 0.0])
        with pytest.raises(NotReadyError):
            tr.components()

    def test_collapsed_component_is_not_ready_until_reseeded(self):
        # A sample of 1e-100 seeds a component of length 1e-200, whose
        # squared length underflows to zero: it collapses as it is seeded.
        tr = EigenTracker(2, 1, amnesia=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr.update([1e-100, 0.0])
            np.testing.assert_array_equal(tr.h[0], [1e-200, 0.0])
            assert not tr.ready
            with pytest.raises(NotReadyError, match="collapsed"):
                tr.components()
            with pytest.raises(NotReadyError, match="collapsed"):
                tr.project([1.0, 0.0])
            tr.update([0.0, 0.0])          # nothing to re-seed from
            assert not tr.ready
            tr.update([0.0, 3.0])
            assert tr.ready
            np.testing.assert_array_equal(tr.components(), [[0.0, 1.0]])

    @pytest.mark.parametrize("amnesia", [0.0, 2.0])
    def test_project_is_components_times_sample_bitwise(self, amnesia):
        # The tracker warms up afresh every 50 samples.  Half the samples
        # are scaled by 1e-100, so components seeded from them collapse at
        # once, and later samples re-seed them.
        rng = np.random.default_rng(27)
        scale = np.sqrt([4.0, 2.0, 1.0, 0.5, 0.25, 0.1])
        collapses = 0
        for t in range(600):
            if t % 50 == 0:
                tr = EigenTracker(6, 3, amnesia=amnesia)
            r = rng.normal(size=6) * scale
            if rng.random() < 0.5:
                r *= 1e-100
            tr.update(r)
            if not tr.ready:
                try:
                    tr.components()
                except NotReadyError as exc:
                    collapses += "collapsed" in str(exc)
                continue
            g = tr.components()
            assert np.array_equal(tr.project(r), g @ r)
            g[:] = 0.0                     # a fresh array each call
            assert np.array_equal(tr.project(r), tr.components() @ r)
        assert collapses > 0

    @pytest.mark.parametrize("amnesia", [1.0, 2.0, 3.5])
    def test_first_samples_take_the_plain_average(self, amnesia):
        # Amnesia weights the old estimate by (n - 1 - amnesia)/n, which is
        # negative for n < 1 + amnesia; up to there the update is the plain
        # running average, and the weights change only after it.
        rng = np.random.default_rng(31)
        samples = rng.normal(size=(8, 3)) * [2.0, 1.0, 0.5]
        plain = EigenTracker(3, 1)
        amnesic = EigenTracker(3, 1, amnesia=amnesia)
        for n, r in enumerate(samples, start=1):
            plain.update(r)
            amnesic.update(r)
            same = np.array_equal(amnesic.h, plain.h)
            assert same == (n <= 1 + amnesia)

    def test_projection_shape_checked(self):
        tr = self._converged_tracker()
        with pytest.raises(ValueError):
            tr.project([1.0, 2.0])
