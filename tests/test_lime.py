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
    lime_fit,
    lime_quartile_fit,
    lime_sample,
)


class TestSampling:
    def test_sample_statistics(self):
        cfg = LimeConfig(n_samples=10000, seed=0)
        samples = lime_sample(2, cfg)
        assert samples.shape == (10000, 2)
        assert np.all(np.abs(samples.mean(axis=0)) < 0.05)

    def test_same_seed_identical(self):
        cfg = LimeConfig(seed=42)
        a = lime_sample(3, cfg)
        b = lime_sample(3, cfg)
        assert np.array_equal(a, b)

    def test_n_samples_floor(self):
        with pytest.raises(DataError, match="below the minimum"):
            lime_sample(2, LimeConfig(n_samples=19))

    @pytest.mark.parametrize("value", [5000.5, 5000.0, True, "5000"])
    def test_n_samples_must_be_an_integer(self, value):
        with pytest.raises(DataError, match="n_samples must be an integer"):
            LimeConfig(n_samples=value)

    def test_numpy_integer_n_samples(self):
        assert lime_sample(2, LimeConfig(n_samples=np.int64(40))).shape == (40, 2)

    @pytest.mark.parametrize("seed", [-1, 0.5, True, "0", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed must be"):
            LimeConfig(seed=seed)


class TestKernel:
    # On rows of four features the width 0.75 * sqrt(4) is exactly 1.5.
    def test_at_center(self):
        assert kernel_weights(np.zeros(4), np.zeros((1, 4))).tolist() == [1.0]

    def test_at_sigma(self):
        # ||x - z|| = sigma gives exactly e^-1
        z = np.zeros(4)
        (w,) = kernel_weights(z, np.array([[1.5, 0.0, 0.0, 0.0]]))
        assert w == pytest.approx(math.exp(-1), abs=1e-12)
        assert w == pytest.approx(0.36788, abs=5e-6)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_width_follows_the_row_width(self, d):
        rows = np.random.default_rng(d).normal(size=(50, d))
        z = rows[0] + 0.5
        diff = rows - z
        sq = np.einsum("ij,ij->i", diff, diff)
        expected = np.exp(-sq / (0.75 * math.sqrt(d)) ** 2)
        assert kernel_weights(z, rows).tobytes() == expected.tobytes()

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing_in_distance(self, r1, r2):
        z = np.zeros(4)
        near, far = sorted([r1, r2])
        rows = np.array([[near, 0.0, 0.0, 0.0], [far, 0.0, 0.0, 0.0]])
        w_near, w_far = kernel_weights(z, rows)
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

    @pytest.mark.parametrize("z", [np.zeros((1, 2)), np.float64(0.0)])
    def test_instance_must_be_one_row(self, z):
        with pytest.raises(ExplanationError, match="expected"):
            lime_fit(ConstantModel(1), z, LimeConfig())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_instance_rejected(self, bad):
        model = FixedLinearModel([1.0, 1.0])
        with pytest.raises(ExplanationError, match="non-finite"):
            lime_fit(model, np.array([bad, 0.0]), LimeConfig())
        bins = QuartileBins.fit(np.random.default_rng(0).normal(size=(40, 2)))
        with pytest.raises(ExplanationError, match="non-finite"):
            lime_quartile_fit(model, bins, np.array([bad, 0.0]), LimeConfig())

    def test_start_reaches_the_solver(self):
        model = FixedLinearModel([1.0, 1.0])
        z, cfg, start = np.array([0.2, 0.0]), LimeConfig(), [0.0, math.nan, 0.0]
        with pytest.raises(ExplanationError, match="start has non-finite"):
            lime_fit(model, z, cfg, start)
        bins = QuartileBins.fit(np.random.default_rng(0).normal(size=(40, 2)))
        with pytest.raises(ExplanationError, match="start has non-finite"):
            lime_quartile_fit(model, bins, z, cfg, start)

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
        inside = np.linalg.norm(fresh - z, axis=1) <= 2 * 0.75 * math.sqrt(2)
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
        assert np.array_equal(bins.bounds[0][1:-1], [1.0, 2.0, 3.0])
        rows = np.array([[0.0], [1.0], [np.nextafter(1.0, 2.0)], [3.0], [4.0], [9.0]])
        assert bins.encode(rows)[:, 0].tolist() == [0, 0, 1, 2, 3, 3]
        assert bins.bounds[0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_sampled_values_lie_in_their_drawn_bins(self):
        X = self.training_rows()
        bins = QuartileBins.fit(X)
        codes, values = bins.sample(5000, np.random.default_rng(1))
        assert np.array_equal(bins.encode(values), codes)
        for j in range(X.shape[1]):
            assert np.all(values[:, j] >= bins.bounds[j][codes[:, j]])
            assert np.all(values[:, j] <= bins.bounds[j][codes[:, j] + 1])
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
            lo, hi = bins.bounds[0][b], bins.bounds[0][b + 1]
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
        assert bins.bounds[0][1:-1].tolist() == [1.5]
        assert bins.bounds[1][1:-1].size < 3
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
