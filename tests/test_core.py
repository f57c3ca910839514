import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedLinearModel, dissim
from leafage import lime, models
from leafage.core import (
    SURROGATE_L2,
    _euclidean,
    _smallest,
    Example,
    LeafageConfig,
    LocalSurrogate,
    closest_enemy,
    dissimilarities,
    explain,
    feature_importances,
    fit_local_linear,
    retrieve_examples,
    sample_local_training_set,
    weighted_logistic_fit,
)
from leafage.data import Dataset, Standardizer, generate_artificial
from leafage.errors import DataError, ExplanationError, NoEnemiesError


def surrogate(w, c=0.0):
    return LocalSurrogate(weights=np.asarray(w, float), intercept=c)


def nearest_enemy(X, predicted, z, c_z):
    return closest_enemy(_euclidean(X, z), predicted, c_z)


class TestClosestEnemy:
    def test_basic_scan(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        predicted = np.array([0, 1, 1])
        # brute-force oracle: enemy distances to z are 0.8 and 2.8
        assert nearest_enemy(X, predicted, np.array([0.2, 0.0]), 0) == 1

    def test_no_enemies(self):
        X = np.zeros((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(NoEnemiesError):
            nearest_enemy(X, np.array([1, 1, 1]), np.zeros(2), 1)

    def test_z_coincides_with_enemy(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        predicted = np.array([0, 1])
        z = np.array([5.0, 5.0])
        assert nearest_enemy(X, predicted, z, 0) == 1

    def test_tie_breaks_lowest_index(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        predicted = np.array([1, 1, 0])
        # both enemies exactly distance 1 from origin
        assert nearest_enemy(X, predicted, np.zeros(2), 0) == 0


class TestSampler:
    def test_full_quota_both_classes(self):
        ds = generate_artificial(200, seed=0)  # 200 rows per class, d=2
        predicted = ds.labels.copy()
        cfg = LeafageConfig(i_small=10)
        idx = sample_local_training_set(ds.features, predicted, 5, cfg)
        assert idx.size == 40
        assert (predicted[idx] == 0).sum() == 20
        assert (predicted[idx] == 1).sum() == 20

    def test_small_class_clamped(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(23, 2))
        predicted = np.array([1] * 3 + [0] * 20)
        cfg = LeafageConfig(i_small=10)  # quota 20 per class
        idx = sample_local_training_set(X, predicted, 0, cfg)
        assert (predicted[idx] == 1).sum() == 3
        assert (predicted[idx] == 0).sum() == 20

    def test_sorted_by_distance_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 3))
        predicted = (rng.uniform(size=300) < 0.5).astype(int)
        cfg = LeafageConfig(i_small=4)  # quota 12
        border = 17
        idx = sample_local_training_set(X, predicted, border, cfg)
        dist = np.linalg.norm(X - X[border], axis=1)
        for cls in (0, 1):
            members = np.flatnonzero(predicted == cls)
            expected = members[np.lexsort((members, dist[members]))][:12]
            assert sorted(idx[predicted[idx] == cls].tolist()) == sorted(
                expected.tolist()
            )

    def test_quota_ties_keep_lowest_indices(self):
        # ring of 8 equidistant allies; quota of 2 must pick indices 0, 1
        angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        X = np.vstack([[0.0, 0.0], ring])
        predicted = np.array([1] + [0] * 8)
        cfg = LeafageConfig(i_small=2)  # quota 4... d=2 -> 4 per class
        idx = sample_local_training_set(X, predicted, 0, cfg)
        enemies = idx[predicted[idx] == 0]
        assert enemies.tolist() == [1, 2, 3, 4]

    def test_config_validation(self):
        with pytest.raises(DataError, match="i_small"):
            LeafageConfig(i_small=1)
        with pytest.raises(DataError, match="k_examples"):
            LeafageConfig(k_examples=0)

    @pytest.mark.parametrize("field", ["i_small", "k_examples"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_config_sizes_must_be_integers(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be an integer"):
            LeafageConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = LeafageConfig(i_small=np.int64(3), k_examples=np.int32(2))
        assert (cfg.i_small, cfg.k_examples) == (3, 2)


class TestLocalFit:
    def axis_separated(self, noise_axis_value=0.0):
        # points differ in x1 only; x2 carries no signal
        x1 = np.concatenate([np.linspace(-1, 0.4, 15), np.linspace(0.6, 2.0, 15)])
        x2 = np.full(30, noise_axis_value)
        X = np.column_stack([x1, x2])
        y = (x1 > 0.5).astype(int)
        return X, y

    def test_axis_aligned_direction(self):
        # points differ only in x1, so the penalized fit zeroes w2
        X, y = self.axis_separated(noise_axis_value=0.7)
        s = fit_local_linear(X, y, np.arange(30))
        assert not s.degenerate
        assert s.weights[0] > 0
        assert abs(s.weights[1]) / abs(s.weights[0]) < 0.1

    def test_single_class_degenerate(self):
        X = np.random.default_rng(1).normal(size=(10, 2))
        s = fit_local_linear(X, np.ones(10, dtype=int), np.arange(10))
        assert s.degenerate
        assert np.all(s.weights == 0.0)

    def test_label_swap_negates(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] + rng.normal(scale=1.5, size=60) > 0).astype(int)  # overlapping
        a = fit_local_linear(X, y, np.arange(60))
        b = fit_local_linear(X, 1 - y, np.arange(60))
        assert np.allclose(a.weights, -b.weights, atol=1e-6)
        assert a.intercept == pytest.approx(-b.intercept, abs=1e-6)

    def test_empty_local_set_rejected(self):
        with pytest.raises(ExplanationError, match="empty"):
            fit_local_linear(np.zeros((4, 2)), np.zeros(4, int), np.empty(0, int))

    def test_solver_recovers_known_direction(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 3))
        true_w = np.array([2.0, -1.0, 0.5])
        y = (X @ true_w + rng.logistic(size=500) > 0).astype(float)
        w, _ = weighted_logistic_fit(X, y)
        cos = w @ true_w / (np.linalg.norm(w) * np.linalg.norm(true_w))
        assert cos > 0.98

    @pytest.mark.parametrize("label", [0.0, 1.0])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_single_class_targets_fit_zeros(self, label, weighted):
        # No finite optimum exists, so the fit is all zeros rather than an
        # intercept driven as far as the iteration cap allows.
        X = np.random.default_rng(7).normal(size=(20, 3))
        sw = np.linspace(0.1, 1.0, 20) if weighted else None
        w, c = weighted_logistic_fit(X, np.full(20, label), sample_weight=sw)
        assert np.array_equal(w, np.zeros(3))
        assert c == 0.0
        assert LocalSurrogate(weights=w, intercept=c).degenerate


def random_two_class(seed, weighted):
    """Noisy logistic labels on 4-79 rows of 1-4 unevenly scaled features."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 80)), int(rng.integers(1, 5))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
    noise = rng.logistic(size=n) * rng.uniform(0.0, 2.0)
    y = (X @ rng.normal(size=d) + noise > 0).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    sw = rng.uniform(0.01, 1.0, size=n) if weighted else np.ones(n)
    return X, y, sw


def lime_size_two_class(seed):
    """A LIME fit's shape: 5,000 standard-normal rows of 2-4 features,
    labels from a fixed linear rule plus logistic noise, kernel weights
    around one row."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 3
    X = rng.normal(size=(5000, d))
    rule = np.linspace(1.0, -0.5, d)
    y = (X @ rule + 0.3 + 0.5 * rng.logistic(size=5000) > 0).astype(float)
    sw = lime.kernel_weights(X[0], X, lime.kernel_width(d))
    return X, y, sw


def penalized_loss_and_gradient(beta, X, y, sw):
    """The objective weighted_logistic_fit minimizes, written independently."""
    d = X.shape[1]
    z = X @ beta[:d] + beta[d]
    p = 0.5 * (1.0 + np.tanh(0.5 * z))
    nll = sw @ (np.logaddexp(0.0, z) - y * z)
    loss = nll + 0.5 * SURROGATE_L2 * (beta[:d] @ beta[:d])
    residual = sw * (p - y)
    grad = np.append(X.T @ residual + SURROGATE_L2 * beta[:d], residual.sum())
    return loss, grad


def check_gradient_vanishes(X, y, sw, weighted):
    w, b = weighted_logistic_fit(X, y, sample_weight=sw if weighted else None)
    _, grad = penalized_loss_and_gradient(np.append(w, b), X, y, sw)
    assert np.max(np.abs(grad)) <= 1e-6 * sw.sum()


def check_matches_scipy_minimize(X, y, sw, weighted):
    optimize = pytest.importorskip("scipy.optimize")
    w, b = weighted_logistic_fit(X, y, sample_weight=sw if weighted else None)
    ours, _ = penalized_loss_and_gradient(np.append(w, b), X, y, sw)
    reference = optimize.minimize(
        penalized_loss_and_gradient, np.zeros(X.shape[1] + 1),
        args=(X, y, sw), jac=True, method="BFGS", options={"gtol": 1e-10},
    )
    assert ours <= reference.fun + 1e-9 * (1.0 + abs(reference.fun))
    scale = 1.0 + np.max(np.abs(reference.x))
    assert np.allclose(np.append(w, b), reference.x, rtol=0, atol=1e-5 * scale)


class TestSolverOptimum:
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_gradient_vanishes(self, seed, weighted):
        check_gradient_vanishes(*random_two_class(seed, weighted), weighted)

    def test_matches_scipy_minimize(self):
        for seed in range(40):
            weighted = seed % 2 == 1
            check_matches_scipy_minimize(*random_two_class(seed, weighted), weighted)

    @pytest.mark.parametrize("seed", range(4))
    def test_lime_size_gradient_vanishes(self, seed):
        check_gradient_vanishes(*lime_size_two_class(seed), weighted=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_lime_size_matches_scipy_minimize(self, seed):
        check_matches_scipy_minimize(*lime_size_two_class(seed), weighted=True)


class TestDissimilarity:
    def test_t_equals_z(self):
        b = dissim(surrogate([1.0, 2.0]), np.zeros(2), np.zeros((1, 2)))
        assert b.tolist() == [0.0]

    def test_orthogonal_displacement_is_zero(self):
        # documented pseudometric behaviour: t != z but b = 0
        s = surrogate([1.0, 0.0])
        assert dissim(s, np.zeros(2), np.array([[0.0, 5.0]])).tolist() == [0.0]

    def test_hand_evaluated_product(self):
        s = surrogate([1.0, 0.0])
        b = dissim(s, np.zeros(2), np.array([[2.0, 0.0]]))
        assert b[0] == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ExplanationError, match="dimension"):
            dissimilarities(
                surrogate([1.0, 0.0]), np.zeros(2), np.zeros((1, 3)), np.zeros(1)
            )

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [0.0, 0.0]])
    def test_distance_count_mismatch(self, weights):
        with pytest.raises(ExplanationError, match="as many distances"):
            dissimilarities(
                surrogate(weights), np.zeros(2), np.zeros((3, 2)), np.zeros(2)
            )

    def test_degenerate_falls_back_to_euclidean(self):
        s = surrogate([0.0, 0.0])
        b = dissim(s, np.zeros(2), np.array([[3.0, 4.0]]))
        assert b[0] == pytest.approx(5.0)

    def test_vectorized_matches_scalar(self):
        # each row of a batch scores as it does alone
        rng = np.random.default_rng(7)
        s = surrogate(rng.normal(size=4))
        z = rng.normal(size=4)
        rows = rng.normal(size=(20, 4))
        bulk = dissim(s, z, rows)
        for i in range(20):
            assert bulk[i] == pytest.approx(dissim(s, z, rows[i : i + 1])[0])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_zero_at_z(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        s = surrogate(rng.normal(size=d))
        z = rng.normal(size=d)
        t = rng.normal(size=d)
        at_t, at_z = dissim(s, z, np.vstack([t, z]))
        assert at_t >= 0.0
        assert at_z == 0.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_reflection_through_z_symmetric(self, seed):
        # b depends on t only through |w.(t-z)| and ||t-z||
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        s = surrogate(rng.normal(size=d))
        z = rng.normal(size=d)
        t = rng.normal(size=d)
        at_t, reflected = dissim(s, z, np.vstack([t, 2 * z - t]))
        assert reflected == pytest.approx(at_t, rel=1e-9)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_scaling_of_weights(self, seed, alpha):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        w = rng.normal(size=d)
        z = rng.normal(size=d)
        rows = rng.normal(size=(30, d))
        base = dissim(surrogate(w), z, rows)
        scaled = dissim(surrogate(alpha * w), z, rows)
        assert np.allclose(scaled, alpha * base, rtol=1e-9)
        assert np.array_equal(np.argsort(base, kind="stable"),
                              np.argsort(scaled, kind="stable"))


class TestImportances:
    def test_hand_example(self):
        s = surrogate([2.0, 0.0, 1.0])
        out = feature_importances(s, np.array([3.0, 5.0, 0.0]))
        assert out.tolist() == [6.0, 0.0, 0.0]

    def test_zero_instance(self):
        s = surrogate([2.0, -1.0])
        assert feature_importances(s, np.zeros(2)).tolist() == [0.0, 0.0]

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            w = rng.normal(size=d)
            z = rng.normal(size=d)
            oracle = np.array([abs(w[i] * z[i]) for i in range(d)])
            assert np.allclose(feature_importances(surrogate(w), z), oracle)

    def test_scaling_preserves_argsort(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=5)
        z = rng.normal(size=5)
        a = feature_importances(surrogate(w), z)
        b = feature_importances(surrogate(3.7 * w), z)
        assert np.array_equal(np.argsort(a, kind="stable"), np.argsort(b, kind="stable"))

    def test_dimension_mismatch(self):
        with pytest.raises(ExplanationError, match="dimension"):
            feature_importances(surrogate([1.0]), np.zeros(3))


class TestSmallest:
    """The partial selection against the full lexsort it replaces."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_lexsort(self, data):
        # Few distinct keys, so ties are common, among them signed zeros,
        # infinities and NaN.
        special = st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan])
        keys = np.array(
            data.draw(st.lists(st.one_of(special, st.floats(-3.0, 3.0)), max_size=60)),
            dtype=np.float64,
        )
        idx = np.array(
            data.draw(st.lists(st.integers(0, 10**6), unique=True,
                               min_size=keys.size, max_size=keys.size)),
            dtype=np.int64,
        )
        k = data.draw(st.integers(0, keys.size + 3))
        expected = idx[np.lexsort((idx, keys))[:k]]
        got = _smallest(idx, keys, k)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestRetrieve:
    def setup_case(self, seed=0, n=100):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        predicted = (rng.uniform(size=n) < 0.5).astype(int)
        s = surrogate(rng.normal(size=2))
        z = rng.normal(size=2)
        return X, predicted, s, z

    def test_top_k_against_full_sort_oracle(self):
        X, predicted, s, z = self.setup_case()
        allies, enemies = retrieve_examples(X, _euclidean(X, z), predicted, s, z, 1, 5)
        b = dissim(s, z, X)
        for got, cls in ((allies, 1), (enemies, 0)):
            members = np.flatnonzero(predicted == cls)
            expected = members[np.lexsort((members, b[members]))][:5]
            assert [i for i, _ in got] == expected.tolist()

    def test_ascending_order(self):
        X, predicted, s, z = self.setup_case(seed=5)
        allies, enemies = retrieve_examples(X, _euclidean(X, z), predicted, s, z, 0, 5)
        for got in (allies, enemies):
            values = [v for _, v in got]
            assert values == sorted(values)

    def test_shortfall_returns_fewer(self):
        X, predicted, s, z = self.setup_case(seed=2, n=10)
        predicted[:] = 1
        predicted[3] = 0
        allies, enemies = retrieve_examples(X, _euclidean(X, z), predicted, s, z, 1, 5)
        assert len(enemies) == 1
        assert len(allies) == 5

    def test_k_below_one_rejected(self):
        X, predicted, s, z = self.setup_case()
        with pytest.raises(ExplanationError, match="k must be at least 1"):
            retrieve_examples(X, _euclidean(X, z), predicted, s, z, 1, 0)

    def test_duplicate_of_z_excluded_from_allies(self):
        X, predicted, s, _ = self.setup_case(seed=3)
        z = X[17].copy()
        predicted[17] = 1
        allies, _ = retrieve_examples(X, _euclidean(X, z), predicted, s, z, 1, 5)
        assert 17 not in [i for i, _ in allies]


def hull_contains(points: np.ndarray, p: np.ndarray) -> bool:
    """Closed convex-hull membership in 2D via the monotone chain hull."""
    pts = sorted(map(tuple, points))

    def half(points_iter):
        chain = []
        for q in points_iter:
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (q[1] - oy) - (ay - oy) * (q[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(q)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        lo, hi = pts[0], pts[-1]
        cross = (hi[0] - lo[0]) * (p[1] - lo[1]) - (hi[1] - lo[1]) * (p[0] - lo[0])
        within = (
            min(lo[0], hi[0]) - 1e-9 <= p[0] <= max(lo[0], hi[0]) + 1e-9
            and min(lo[1], hi[1]) - 1e-9 <= p[1] <= max(lo[1], hi[1]) + 1e-9
        )
        return abs(cross) < 1e-9 and within
    for i in range(len(hull)):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % len(hull)]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < -1e-9:
            return False
    return True


class TestExplain:
    def standardized_ad(self, seed=0, n=250):
        ds = generate_artificial(n, seed=seed)
        return ds, Standardizer.fit(ds.features)

    def test_known_boundary_importance_and_sides(self):
        ds, sc = self.standardized_ad(seed=1)
        model = FixedLinearModel([1.0, 0.0])  # boundary x1 = 0 in std space
        z = np.array([1.0, 0.3]) * sc.scales + sc.means
        e = explain(model, ds, z, LeafageConfig(), standardizer=sc)
        assert e.predicted_class == "B"  # class code 1
        assert e.importances[0] > e.importances[1]
        for ally in e.allies:
            assert sc.transform(ally.features[None, :])[0][0] >= 0.0
        for enemy in e.enemies:
            assert sc.transform(enemy.features[None, :])[0][0] < 0.0

    def test_allies_share_predicted_class(self):
        ds, sc = self.standardized_ad(seed=2)
        model = FixedLinearModel([0.3, 1.0], -0.2)
        z = ds.features[7]
        e = explain(model, ds, z, LeafageConfig(), standardizer=sc)
        c_z = model.predict_labels(sc.transform(z[None, :]))[0]
        for ally in e.allies:
            assert model.predict_labels(sc.transform(ally.features[None, :]))[0] == c_z
        for enemy in e.enemies:
            assert model.predict_labels(sc.transform(enemy.features[None, :]))[0] != c_z

    def test_deterministic(self):
        ds, sc = self.standardized_ad(seed=3)
        model = FixedLinearModel([0.5, 1.0])
        z = ds.features[11]
        a = explain(model, ds, z, LeafageConfig(seed=4), standardizer=sc)
        b = explain(model, ds, z, LeafageConfig(seed=4), standardizer=sc)
        assert np.array_equal(a.importances, b.importances)
        assert [x.index for x in a.allies] == [x.index for x in b.allies]
        assert [x.index for x in a.enemies] == [x.index for x in b.enemies]
        assert np.array_equal(a.surrogate.weights, b.surrogate.weights)

    def test_degenerate_surrogate_flagged(self):
        # Every training row lies left of the boundary and the instance
        # right of it: the local sample is all class 0.
        ds, sc = self.standardized_ad(n=30)
        X_std = sc.transform(ds.features)
        edge = X_std[:, 0].max()
        model = FixedLinearModel([1.0, 0.0], -(edge + 0.5))
        z_std = np.array([edge + 1.0, 0.0])
        e = explain(model, ds, z_std * sc.scales + sc.means, standardizer=sc)
        assert e.predicted_class == "B"
        assert e.flags == (
            "ally_shortfall", "degenerate_surrogate", "local_sample_shortfall_class_1"
        )
        assert e.importances.tolist() == [0.0, 0.0]
        assert e.allies == []
        distances = _euclidean(X_std, sc.transform(e.test_instance[None, :])[0])
        nearest = np.lexsort((np.arange(ds.n), distances))[:5]
        assert [x.index for x in e.enemies] == nearest.tolist()
        assert [x.dissimilarity for x in e.enemies] == distances[nearest].tolist()

    @pytest.mark.parametrize("shape", [(3,), (1, 2)])
    def test_wrong_shaped_instance_rejected(self, shape):
        ds, sc = self.standardized_ad(n=20)
        with pytest.raises(ExplanationError, match="instance has shape"):
            explain(FixedLinearModel([1.0, 0.0]), ds, np.zeros(shape), standardizer=sc)

    def test_three_class_dataset_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        ds = Dataset(X, np.arange(30) % 3, ["x1", "x2"], ["x", "y", "z"])
        with pytest.raises(DataError, match="binary"):
            explain(FixedLinearModel([1.0, 0.0]), ds, X[2])

    def test_no_enemy_propagates(self):
        from conftest import ConstantModel

        ds, sc = self.standardized_ad(seed=4, n=20)
        with pytest.raises(NoEnemiesError):
            explain(ConstantModel(1), ds, ds.features[0], standardizer=sc)

    def test_local_set_contains_both_classes(self):
        ds, sc = self.standardized_ad(seed=5)
        model = FixedLinearModel([0.0, 1.0], -0.35)
        for row in (0, 40, 99, 123):
            e = explain(model, ds, ds.features[row], standardizer=sc)
            predicted = model.predict_labels(sc.transform(ds.features))
            classes = np.unique(predicted[e.surrogate.local_indices])
            assert classes.size == 2

    def test_border_inside_local_hull(self):
        ds, sc = self.standardized_ad(seed=6)
        model = FixedLinearModel([0.2, 1.0], -0.3)
        X_std = sc.transform(ds.features)
        for row in (3, 57, 88):
            e = explain(model, ds, ds.features[row], standardizer=sc)
            local = X_std[e.surrogate.local_indices]
            assert hull_contains(local, X_std[e.surrogate.x_border])

    def test_surrogate_matches_linear_blackbox_in_neighbourhood(self):
        ds, sc = self.standardized_ad(seed=7)
        model = FixedLinearModel([0.4, 1.0], 0.1)
        X_std = sc.transform(ds.features)
        agreements = []
        for row in range(0, 150, 10):
            e = explain(model, ds, ds.features[row], standardizer=sc)
            local = X_std[e.surrogate.local_indices]
            surrogate_labels = (e.surrogate.score(local) >= 0).astype(int)
            agreements.append(np.mean(surrogate_labels == model.predict_labels(local)))
        assert np.mean(agreements) >= 0.99

    def test_shortfall_flags(self):
        # 8 rows per class cannot fill the i_small*d = 20 quota, and k=5
        # enemies may run short on one side after the quota clamps
        ds, sc = self.standardized_ad(seed=8, n=8)
        model = FixedLinearModel([0.0, 1.0], -0.35)
        e = explain(model, ds, ds.features[0], LeafageConfig(k_examples=10),
                    standardizer=sc)
        assert "local_sample_shortfall_class_0" in e.flags
        assert "local_sample_shortfall_class_1" in e.flags
        assert "ally_shortfall" in e.flags
        assert "enemy_shortfall" in e.flags
        assert len(e.allies) < 10 and len(e.enemies) < 10

    @staticmethod
    def narrow_dataset():
        # Feature standard deviations near 0.0094 magnify a far instance
        # about a hundredfold once it is standardized.
        X = 0.5 + 0.0094 * np.random.default_rng(0).standard_normal((60, 2))
        return Dataset(X, (X[:, 0] > 0.5).astype(int), ["a", "b"], ["n", "p"])

    @pytest.mark.parametrize(
        "value, what",
        [(1e300, "a dissimilarity"), (1.7e308, "its standardized value")],
    )
    def test_far_instance_rejected(self, value, what):
        ds = self.narrow_dataset()
        fitted = models.fit_on_standardized("rf", ds)
        with pytest.raises(ExplanationError, match=f"too far.*{what} overflows"):
            explain(fitted.model, ds, np.array([value, 0.5]),
                    standardizer=fitted.standardizer)
