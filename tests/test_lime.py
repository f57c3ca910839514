import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ConstantModel, FixedLinearModel
from leafage.errors import DataError, ExplanationError
from leafage.evaluation import auc
from leafage.lime import (
    LimeConfig,
    QuartileBins,
    kernel_weights,
    kernel_width,
    lime_fit,
    lime_quartile_fit,
    lime_sample,
)


class TestSampling:
    def test_sample_statistics(self):
        cfg = LimeConfig(n_samples=10000, seed=0)
        samples = lime_sample(2, np.zeros(2), cfg)
        assert samples.shape == (10000, 2)
        assert np.all(np.abs(samples.mean(axis=0)) < 0.05)

    def test_same_seed_identical(self):
        cfg = LimeConfig(seed=42)
        a = lime_sample(3, np.zeros(3), cfg)
        b = lime_sample(3, np.zeros(3), cfg)
        assert np.array_equal(a, b)

    def test_n_samples_floor(self):
        with pytest.raises(DataError, match="below the minimum"):
            lime_sample(2, np.zeros(2), LimeConfig(n_samples=19))


class TestKernel:
    def test_at_center(self):
        assert kernel_weights(np.zeros(3), np.zeros((1, 3)), 1.5).tolist() == [1.0]

    def test_at_sigma(self):
        # ||x - z|| = sigma gives exactly e^-1
        z = np.zeros(2)
        (w,) = kernel_weights(z, np.array([[1.5, 0.0]]), 1.5)
        assert w == pytest.approx(math.exp(-1), abs=1e-12)
        assert w == pytest.approx(0.36788, abs=5e-6)

    def test_default_sigma_d4(self):
        assert kernel_width(4) == pytest.approx(1.5)

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing_in_distance(self, r1, r2, sigma):
        z = np.zeros(2)
        near, far = sorted([r1, r2])
        w_near, w_far = kernel_weights(z, np.array([[near, 0.0], [far, 0.0]]), sigma)
        assert w_near >= w_far
        # mathematically in (0, 1]; float underflow can reach exactly 0
        assert 0.0 <= w_far <= 1.0
        assert w_near <= 1.0


class TestFit:
    def test_recovers_known_normal_within_5_degrees(self):
        model = FixedLinearModel([1.0, 0.0])
        s = lime_fit(model, np.array([0.3, -0.2]), LimeConfig(seed=0))
        assert not s.degenerate
        w = s.weights / np.linalg.norm(s.weights)
        angle = math.degrees(math.acos(min(1.0, abs(w[0]))))
        assert angle < 5.0

    def test_constant_black_box_degenerate(self):
        s = lime_fit(ConstantModel(1), np.zeros(2), LimeConfig(seed=1))
        assert s.degenerate
        assert np.all(s.weights == 0.0)

    def test_same_seed_identical_surrogate(self):
        model = FixedLinearModel([0.5, 1.0], 0.2)
        a = lime_fit(model, np.array([0.1, 0.1]), LimeConfig(seed=9))
        b = lime_fit(model, np.array([0.1, 0.1]), LimeConfig(seed=9))
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_linear_blackbox_agreement_within_2sigma(self):
        # surrogate and true boundary agree on >= 99% of fresh samples
        # inside the kernel's 2-sigma ball around z
        model = FixedLinearModel([1.0, -0.7], 0.1)
        z = np.array([0.4, 0.2])
        cfg = LimeConfig(seed=3)
        s = lime_fit(model, z, cfg)
        rng = np.random.default_rng(99)
        fresh = rng.standard_normal((20000, 2))
        inside = np.linalg.norm(fresh - z, axis=1) <= 2 * kernel_width(2)
        fresh = fresh[inside]
        agree = np.mean(
            (s.score(fresh) >= 0).astype(int) == model.predict_labels(fresh)
        )
        assert agree >= 0.99

    def test_surrogate_has_no_border_index(self):
        s = lime_fit(FixedLinearModel([1.0, 0.0]), np.zeros(2), LimeConfig(seed=5))
        assert s.x_border is None
        assert s.local_indices.size == 0


class TestQuartile:
    @staticmethod
    def training_rows(n=400, d=3, seed=0):
        return np.random.default_rng(seed).standard_normal((n, d))

    def test_edge_value_falls_in_lower_bin(self):
        bins = QuartileBins.fit(np.arange(5.0)[:, None])  # quartiles 1, 2, 3
        assert np.array_equal(bins.edges[0], [1.0, 2.0, 3.0])
        rows = np.array([[0.0], [1.0], [np.nextafter(1.0, 2.0)], [3.0], [4.0], [9.0]])
        assert bins.encode(rows)[:, 0].tolist() == [0, 0, 1, 2, 3, 3]
        assert bins.lows[0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert bins.highs[0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_sampled_values_lie_in_their_drawn_bins(self):
        X = self.training_rows()
        bins = QuartileBins.fit(X)
        codes, values = bins.sample(5000, np.random.default_rng(1))
        assert np.array_equal(bins.encode(values), codes)
        for j in range(X.shape[1]):
            assert np.all(values[:, j] >= bins.lows[j][codes[:, j]])
            assert np.all(values[:, j] <= bins.highs[j][codes[:, j]])
            # bins are drawn with their training frequency
            share = np.bincount(codes[:, j], minlength=4) / codes.shape[0]
            assert np.allclose(share, bins.counts[j] / X.shape[0], atol=0.03)

    def test_within_bin_draws_follow_truncated_normal(self):
        stats = pytest.importorskip("scipy.stats")
        X = self.training_rows(d=1)
        bins = QuartileBins.fit(X)
        codes, values = bins.sample(4000, np.random.default_rng(2))
        for b in range(4):
            mean, std = bins.means[0][b], bins.stds[0][b]
            lo, hi = bins.lows[0][b], bins.highs[0][b]
            dist = stats.truncnorm((lo - mean) / std, (hi - mean) / std, mean, std)
            assert stats.kstest(values[codes[:, 0] == b, 0], dist.cdf).pvalue > 1e-3

    def test_same_seed_identical_surrogate(self):
        bins = QuartileBins.fit(self.training_rows(d=2))
        model = FixedLinearModel([0.5, 1.0], 0.2)
        z = np.array([0.1, -0.3])
        a = lime_quartile_fit(model, bins, z, LimeConfig(seed=9))
        b = lime_quartile_fit(model, bins, z, LimeConfig(seed=9))
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept
        assert np.array_equal(a.z_codes, b.z_codes)

    def test_score_uses_same_bin_encoding(self):
        bins = QuartileBins.fit(self.training_rows(d=2))
        z = np.array([0.4, 0.2])
        s = lime_quartile_fit(FixedLinearModel([1.0, -0.7]), bins, z, LimeConfig(seed=3))
        assert not s.degenerate
        rows = self.training_rows(n=50, d=2, seed=5)
        same = (bins.encode(rows) == bins.encode(z[None, :])).astype(float)
        assert np.allclose(s.score(rows), same @ s.weights + s.intercept)

    def test_constant_black_box_scores_half(self):
        bins = QuartileBins.fit(self.training_rows(d=2))
        s = lime_quartile_fit(ConstantModel(1), bins, np.zeros(2), LimeConfig(seed=1))
        assert s.degenerate
        assert np.all(s.weights == 0.0)
        rows = self.training_rows(n=20, d=2, seed=6)
        labels = np.arange(20) % 2
        assert auc(labels, s.score(rows)) == 0.5

    def test_constant_and_tied_quartile_columns(self):
        rng = np.random.default_rng(3)
        n = 200
        X = np.column_stack(
            [
                np.full(n, 1.5),  # constant: a single edge
                np.where(np.arange(n) < 150, 0.0, rng.normal(size=n)),  # tied
                rng.normal(size=n),
            ]
        )
        bins = QuartileBins.fit(X)
        assert bins.edges[0].tolist() == [1.5]
        assert bins.edges[1].size < 3
        codes, values = bins.sample(3000, np.random.default_rng(4))
        assert np.array_equal(bins.encode(values), codes)
        assert np.all(values[:, 0] == 1.5)
        s = lime_quartile_fit(
            FixedLinearModel([0.0, 1.0, 1.0]), bins, np.array([2.0, 0.0, 0.1]),
            LimeConfig(seed=0),
        )
        assert np.all(np.isfinite(s.weights))

    def test_instance_shape_and_sample_floor(self):
        bins = QuartileBins.fit(self.training_rows(d=2))
        with pytest.raises(ExplanationError, match="expected"):
            lime_quartile_fit(ConstantModel(1), bins, np.zeros(3), LimeConfig())
        with pytest.raises(DataError, match="below the minimum"):
            lime_quartile_fit(ConstantModel(1), bins, np.zeros(2), LimeConfig(n_samples=19))
