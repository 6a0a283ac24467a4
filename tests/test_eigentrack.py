"""Tests for the streaming eigenvector tracker."""

import numpy as np
import pytest

from flexls.eigentrack import (
    EigenTracker,
    NotReadyError,
    write_component_csv,
    write_eigenvalue_csv,
)

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

    def test_projection_shape_checked(self):
        tr = self._converged_tracker()
        with pytest.raises(ValueError):
            tr.project([1.0, 2.0])


class TestCopy:
    def test_copy_is_independent(self):
        rng = np.random.default_rng(27)
        tr = EigenTracker(3, 2)
        for _ in range(10):
            tr.update(rng.normal(size=3))
        dup = tr.copy()
        dup.update(rng.normal(size=3))
        assert dup.n == tr.n + 1
        assert not np.array_equal(dup.h, tr.h)


class TestCsv:
    def test_eigenvalue_history_round_trip(self, tmp_path):
        hist = np.array([[4.0, 1.0], [4.1, 0.9]])
        out = tmp_path / "eig.csv"
        write_eigenvalue_csv(out, hist)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,lambda_1,lambda_2"
        assert lines[1].split(",")[0] == "1"
        assert float(lines[2].split(",")[2]) == 0.9

    def test_component_history_round_trip(self, tmp_path):
        hist = np.array([[0.6, 0.8, 0.0]])
        out = tmp_path / "comp.csv"
        write_component_csv(out, hist)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,g_1,g_2,g_3"
        assert [float(v) for v in lines[1].split(",")[1:]] == [0.6, 0.8, 0.0]

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_eigenvalue_csv(tmp_path / "x.csv", np.zeros(3))
        with pytest.raises(ValueError):
            write_component_csv(tmp_path / "y.csv", np.zeros((2, 2, 2)))
