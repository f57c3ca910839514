import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedLinearModel, blob_dataset, class_rows
from leafage import evaluation, models
from leafage.core import LocalSurrogate, explain
from leafage.data import Dataset, SplitSpec, generate_artificial, train_test_split
from leafage.errors import DataError, NoEnemiesError
from leafage.evaluation import (
    FidelityConfig,
    FidelitySummary,
    auc,
    bold_flags,
    fidelity_sphere,
    format_mean_std,
    results_table,
    run_setting,
    wilcoxon_signed_rank,
    write_results_csv,
)
from leafage.lime import LimeConfig


def auc_bruteforce(labels, scores):
    """Quadratic concordance-counting oracle."""
    labels = np.asarray(labels, dtype=bool)
    pos = np.asarray(scores, float)[labels]
    neg = np.asarray(scores, float)[~labels]
    grid_pos = pos[:, None]
    concordant = (grid_pos > neg).sum() + 0.5 * (grid_pos == neg).sum()
    return concordant / (pos.size * neg.size)


class TestAuc:
    def test_perfectly_separated(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reversed_ranking(self):
        assert auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_hand_counted_pairs(self):
        # pos scores {0.8, 0.6} vs neg {0.7, 0.5}: 3 of 4 pairs concordant
        assert auc([1, 0, 1, 0], [0.8, 0.7, 0.6, 0.5]) == 0.75

    def test_constant_scores_half(self):
        assert auc([1, 0, 1, 0], [3.0, 3.0, 3.0, 3.0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="positive and one negative"):
            auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="equal length"):
            auc([1, 0, 1], [0.1, 0.2])

    @pytest.mark.parametrize("scores", [
        [math.nan, 0.1, 0.2, 0.3],
        [0.4, math.nan, 0.2, 0.3],
    ])
    def test_nan_score_rejected(self, scores):
        # A rank order would place NaN above every number: 0.75 here.
        with pytest.raises(DataError, match="NaN"):
            auc([1, 0, 1, 0], scores)

    def test_infinities_tie_with_their_equals(self):
        inf = math.inf
        assert auc([1, 0], [inf, inf]) == 0.5
        assert auc([1, 0], [-inf, -inf]) == 0.5
        assert auc([1, 0, 1, 0], [inf, -inf, inf, inf]) == 0.75

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 120))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 6, size=n).astype(float)
            assert auc(labels, scores) == pytest.approx(
                auc_bruteforce(labels, scores), abs=1e-12
            )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 50))
        labels = np.concatenate([[0, 1], rng.integers(0, 2, size=n - 2)])
        scores = rng.normal(size=n)
        base = auc(labels, scores)
        assert auc(labels, 3.0 * scores + 7.0) == pytest.approx(base, abs=1e-12)
        assert auc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_negation_complement_without_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        labels = np.concatenate([[0, 1], rng.integers(0, 2, size=n - 2)])
        scores = rng.permutation(n).astype(float)  # distinct scores
        assert auc(labels, scores) + auc(labels, -scores) == pytest.approx(
            1.0, abs=1e-12
        )


def wilcoxon_enumeration_oracle(diff):
    """Exhaustive two-sided p over all sign patterns of the actual ranks."""
    diff = np.asarray(diff, float)
    diff = diff[diff != 0]
    n = diff.size
    absd = np.abs(diff)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    sorted_abs = absd[order]
    i = 0
    while i < n:
        j = i
        while j < n and sorted_abs[j] == sorted_abs[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    observed = ranks[diff > 0].sum()
    totals = [
        sum(r for r, s in zip(ranks, signs) if s)
        for signs in itertools.product([0, 1], repeat=n)
    ]
    totals = np.asarray(totals)
    p_le = np.mean(totals <= observed)
    p_ge = np.mean(totals >= observed)
    return min(1.0, 2 * min(p_le, p_ge))


def reference_rank_average(values: np.ndarray) -> np.ndarray:
    """Fractional ranks from one stable sort: each run of equal sorted
    values shares the mean of its positions."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    boundary = np.concatenate(([True], sv[1:] != sv[:-1]))
    group = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], values.size)
    mean_rank = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(values.size)
    ranks[order] = mean_rank[group]
    return ranks


class TestWilcoxon:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1e-300, 0.5, 1.0, 2.0, math.inf]),
                st.floats(0.0, 1e6),
            ),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_rank_average_equals_the_sort_reference(self, values):
        values = np.array(values, dtype=np.float64)
        got = evaluation._rank_average(values)
        assert got.tobytes() == reference_rank_average(values).tobytes()

    def test_identical_vectors_inconclusive(self):
        a = np.arange(10.0)
        result = wilcoxon_signed_rank(a, a)
        assert result.inconclusive
        assert result.p_value is None

    def test_fewer_than_six_nonzero(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = a + np.array([0.0, 0.0, 0.1, -0.2, 0.3, 0.4])  # 4 non-zero
        assert wilcoxon_signed_rank(a, b).inconclusive

    def test_n6_all_positive_exact(self):
        a = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        b = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        result = wilcoxon_signed_rank(a, b)
        assert result.statistic == 21.0
        # exact two-sided p is 2/64; also satisfies the looser +-0.015
        # normal-approximation contract
        assert result.p_value == pytest.approx(0.03125, abs=1e-12)
        assert abs(result.p_value - 0.03125) <= 0.015

    def test_matches_enumeration_oracle_small_n(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            n = int(rng.integers(6, 13))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            if rng.uniform() < 0.4:  # force tied |differences|
                b = a - rng.integers(-2, 3, size=n).astype(float)
            diff = a - b
            if (diff != 0).sum() < 6:
                continue
            result = wilcoxon_signed_rank(a, b)
            assert result.p_value == pytest.approx(
                wilcoxon_enumeration_oracle(diff), abs=0.01
            )

    def test_normal_path_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(30, 80))
            a = rng.normal(size=n)
            b = a - rng.normal(loc=0.2, size=n)
            result = wilcoxon_signed_rank(a, b)
            assert result.method == "normal"
            reference = scipy_stats.wilcoxon(
                a, b, zero_method="wilcox", correction=False, method="approx"
            )
            assert result.p_value == pytest.approx(reference.pvalue, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            wilcoxon_signed_rank(np.zeros(3), np.zeros(4))

    def test_exact_counts_match_copy_and_add(self):
        # The shift-and-add over a fresh array, as a reference for the
        # in-place update: the p values agree bit for bit.
        def reference_p(ranks, stat):
            doubled = np.rint(2.0 * ranks).astype(np.int64)
            total = int(doubled.sum())
            counts = np.zeros(total + 1)
            counts[0] = 1.0
            for r in doubled:
                shifted = np.zeros_like(counts)
                shifted[r:] = counts[: total + 1 - r]
                counts = counts + shifted
            t2 = int(np.rint(2.0 * stat))
            denom = 2.0 ** len(ranks)
            p_le, p_ge = counts[: t2 + 1].sum() / denom, counts[t2:].sum() / denom
            return min(1.0, 2.0 * min(p_le, p_ge))

        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(6, evaluation.WILCOXON_EXACT_LIMIT + 1))
            diff = rng.integers(-4, 5, size=n) * 0.5  # tied |differences|
            if rng.uniform() < 0.5:
                diff = diff + rng.normal(size=n)
            diff = diff[diff != 0]
            if diff.size < 6:
                continue
            ranks = evaluation._rank_average(np.abs(diff))
            stat = float(ranks[diff > 0].sum())
            assert evaluation._exact_signed_rank_p(ranks, stat) == reference_p(ranks, stat)

    @pytest.mark.parametrize("a, b", [
        ([math.nan] * 8, [0.0] * 8),
        ([math.inf] * 8, [math.inf] * 8),
        ([1.0] * 7 + [math.nan], [0.0] * 8),
    ])
    def test_nan_difference_rejected(self, a, b):
        with pytest.raises(DataError, match="paired differences must not be NaN"):
            wilcoxon_signed_rank(np.array(a), np.array(b))

    def test_one_tie_group_keeps_normal_variance_positive(self):
        # A single group of n ties removes (n^3 - n) / 48, the most ties
        # can, which leaves a variance of 3n(n + 1)^2 / 48.
        result = wilcoxon_signed_rank(np.ones(30), np.zeros(30))
        assert result.method == "normal"
        z = (30 * 15.5 - 30 * 31 / 4) / math.sqrt(3 * 30 * 31**2 / 48)
        assert result.p_value == pytest.approx(math.erfc(z / math.sqrt(2)))


class TestFidelitySphere:
    def line_geometry(self, n_enemies=20, n_allies=5):
        # center at origin; enemies at x = 1..n_enemies; allies tucked close
        enemies = np.column_stack(
            [np.arange(1.0, n_enemies + 1), np.zeros(n_enemies)]
        )
        allies = np.column_stack(
            [np.full(n_allies, 0.25), np.linspace(-0.2, 0.2, n_allies)]
        )
        features = np.vstack([[0.0, 0.0], allies, enemies])
        predicted = np.array([1] * (1 + n_allies) + [0] * n_enemies)
        return features, predicted

    def test_radius_is_19th_nearest_enemy(self):
        features, predicted = self.line_geometry()
        sphere = fidelity_sphere(features, class_rows(predicted)[0], 0, 0.95)
        dist = np.linalg.norm(features[sphere], axis=1)
        enemy_dist = dist[predicted[sphere] == 0]
        assert enemy_dist.max() == 19.0  # ceil(0.95 * 20) = 19
        assert len(enemy_dist) == 19
        assert 0 not in sphere

    def test_p_near_one_includes_all_enemies(self):
        features, predicted = self.line_geometry()
        sphere = fidelity_sphere(features, class_rows(predicted)[0], 0, 0.999)
        assert (predicted[sphere] == 0).sum() == 20

    def test_single_enemy(self):
        features, predicted = self.line_geometry(n_enemies=1)
        sphere = fidelity_sphere(features, class_rows(predicted)[0], 0, 0.95)
        assert (predicted[sphere] == 0).sum() == 1  # ceil(0.95 * 1) = 1

    def test_no_enemy_raises(self):
        features = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(NoEnemiesError):
            fidelity_sphere(features, class_rows(np.ones(5, dtype=int))[0], 0, 0.95)

    def test_shrinking_p_shrinks_sphere(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(60, 2))
        predicted = rng.integers(0, 2, size=60)
        enemies = class_rows(predicted)[1 - predicted[4]]
        previous = None
        for p in (0.95, 0.7, 0.4, 0.2):
            sphere = set(fidelity_sphere(features, enemies, 4, p).tolist())
            if previous is not None:
                assert sphere <= previous
            previous = sphere

    def test_allies_inside_radius_included(self):
        features, predicted = self.line_geometry()
        sphere = fidelity_sphere(features, class_rows(predicted)[0], 0, 0.95)
        assert (predicted[sphere] == 1).sum() == 5  # all allies are close

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.5, math.nan, "0.5", None])
    def test_p_outside_open_unit_interval_rejected(self, p):
        features = np.random.default_rng(1).standard_normal((200, 2))
        predicted = (features[:, 0] > 0).astype(np.int64)
        enemies = class_rows(predicted)[1 - predicted[0]]
        with pytest.raises(DataError, match="p must lie strictly between 0 and 1"):
            fidelity_sphere(features, enemies, 0, p)

    @pytest.mark.parametrize(
        "z_index, message",
        [
            (-1, "out of range"),
            (4, "out of range"),
            (1.0, "must be an integer"),
            (True, "must be an integer"),
            (None, "must be an integer"),
        ],
    )
    def test_centre_outside_the_rows_rejected(self, z_index, message):
        features = np.arange(8.0).reshape(4, 2)
        enemies = class_rows([0, 1, 0, 1])[0]
        with pytest.raises(DataError, match=f"z_index .*{message}"):
            fidelity_sphere(features, enemies, z_index, 0.5)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_sphere_always_contains_an_enemy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 80))
        features = rng.normal(size=(n, 2))
        predicted = rng.integers(0, 2, size=n)
        z = int(rng.integers(0, n))
        enemies = class_rows(predicted)[1 - predicted[z]]
        enemies_exist = np.any(predicted[np.arange(n) != z] != predicted[z])
        if not enemies_exist:
            with pytest.raises(NoEnemiesError):
                fidelity_sphere(features, enemies, z, 0.95)
            return
        sphere = fidelity_sphere(features, enemies, z, 0.95)
        assert np.any(predicted[sphere] != predicted[z])
        assert z not in sphere


class TestLocalFidelity:
    def test_perfect_ranking(self):
        s = LocalSurrogate(weights=np.array([1.0, 0.0]), intercept=0.0)
        rows = np.array([[2.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]])
        labels = np.array([1, 1, 0, 0])
        assert auc(labels, s.score(rows)) == 1.0

    def test_constant_scores_half(self):
        s = LocalSurrogate(weights=np.zeros(2), intercept=1.0)
        rows = np.random.default_rng(0).normal(size=(10, 2))
        labels = np.array([0, 1] * 5)
        assert auc(labels, s.score(rows)) == 0.5


def tiny_spread_dataset(rng, n, wide_row=None):
    """x1 standard normal and the label its sign; x2 spread over ~1e-150,
    except a value of 1e200 in row ``wide_row``."""
    x1 = rng.standard_normal(n)
    x2 = 1e-150 * rng.standard_normal(n)
    if wide_row is not None:
        x2[wide_row] = 1e200
    return Dataset(
        np.column_stack([x1, x2]), (x1 > 0).astype(int), ["x1", "x2"], ["a", "b"]
    )


class TestRunSetting:
    def test_baseline_exactly_half(self):
        ds = generate_artificial(60, seed=0)
        train, test = train_test_split(ds, SplitSpec(seed=0))
        (summary,) = run_setting(train, test, "knn", ("baseline",))
        assert summary.mean == 0.5
        assert summary.stddev == 0.0
        assert summary.n_skipped == 0

    def test_leafage_on_separable_blobs(self):
        ds = blob_dataset(n_per_class=80, seed=1)
        train, test = train_test_split(ds, SplitSpec(seed=1))
        (summary,) = run_setting(train, test, "svm", ("leafage",))
        assert summary.mean >= 0.99

    def test_identical_seeds_identical_summaries(self):
        ds = generate_artificial(50, seed=2)
        train, test = train_test_split(ds, SplitSpec(seed=2))
        a = run_setting(train, test, "dt", ("leafage", "lime"), model_seed=3)
        b = run_setting(train, test, "dt", ("leafage", "lime"), model_seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(
                x.per_instance_auc, y.per_instance_auc, equal_nan=True
            )
            assert x.mean == y.mean

    def test_lime_quartile_shares_skips(self):
        ds = generate_artificial(40, seed=4)
        train, test = train_test_split(ds, SplitSpec(seed=4))
        cfg = LimeConfig(n_samples=500)
        everything = run_setting(
            train, test, "rf", ("leafage", "lime", "baseline", "lime-quartile"),
            lime_cfg=cfg, model_seed=4,
        )
        skipped = [np.isnan(s.per_instance_auc) for s in everything]
        for mask in skipped[1:]:
            assert np.array_equal(mask, skipped[0])
        quartile = everything[-1]
        assert quartile.setting == ("ad", "B", "rf", "lime-quartile")
        assert quartile.n_scored > 0 and 0.0 <= quartile.mean <= 1.0
        # continuous LIME scores do not depend on which strategies run
        (lime_alone,) = run_setting(
            train, test, "rf", ("lime",), lime_cfg=cfg, model_seed=4
        )
        assert np.array_equal(
            lime_alone.per_instance_auc, everything[1].per_instance_auc, equal_nan=True
        )

    def test_lime_fits_start_from_the_strategys_first_solution(self, monkeypatch):
        ds = generate_artificial(40, seed=4)
        train, test = train_test_split(ds, SplitSpec(seed=4))
        calls = {"lime": [], "lime-quartile": []}

        def spy(strategy, fit):
            def recorded(*args):
                surrogate = fit(*args)
                calls[strategy].append((args[-1], surrogate))
                return surrogate
            return recorded

        monkeypatch.setattr(evaluation, "lime_fit", spy("lime", evaluation.lime_fit))
        monkeypatch.setattr(
            evaluation,
            "lime_quartile_fit",
            spy("lime-quartile", evaluation.lime_quartile_fit),
        )
        run_setting(
            train, test, "lr", ("lime", "lime-quartile"),
            lime_cfg=LimeConfig(n_samples=500),
        )
        for fits in calls.values():
            (first_start, first), *later = fits
            assert first_start is None and later
            solution = np.append(first.weights, first.intercept)
            for start, _ in later:
                assert np.array_equal(start, solution)

    def test_no_training_enemy_skips_every_strategy(self, monkeypatch):
        # Every training row lies left of x1 = 3, where the model says 0,
        # so test rows predicted 0 have no closest enemy among them; only
        # the six test rows right of the boundary (predicted 1) can score.
        rng = np.random.default_rng(0)
        train = Dataset(
            rng.uniform(0.0, 2.0, size=(40, 2)), np.arange(40) % 2,
            ["x1", "x2"], ["A", "B"], name="one-sided",
        )
        test_rows = rng.uniform(0.0, 2.0, size=(30, 2))
        test_rows[:6, 0] += 4.0
        test = Dataset(test_rows, np.arange(30) % 2, ["x1", "x2"], ["A", "B"])
        scale = train.features[:, 0].std()
        boundary = (3.0 - train.features[:, 0].mean()) / scale
        monkeypatch.setattr(
            models, "fit",
            lambda *args, **kwargs: FixedLinearModel([1.0, 0.0], -boundary),
        )
        summaries = run_setting(
            train, test, "lr", ("leafage", "lime", "baseline"),
            lime_cfg=LimeConfig(n_samples=200),
        )
        skipped = [np.isnan(s.per_instance_auc) for s in summaries]
        assert skipped[0][6:].all() and not skipped[0][:6].all()
        for mask in skipped[1:]:
            assert np.array_equal(mask, skipped[0])

    def test_single_class_sphere_skips_every_strategy(self, monkeypatch):
        # The model says 1 right of x1 = 3.  With p = 0.1 each sphere
        # reaches only the nearest test enemy, so test row 4 (x1 = 2.6,
        # predicted 0) holds just the enemy at 3.5, while every other row
        # has an ally inside its sphere.
        rng = np.random.default_rng(0)
        train = Dataset(
            rng.uniform(0.0, 6.0, size=(40, 2)), np.arange(40) % 2,
            ["x1", "x2"], ["A", "B"], name="gap",
        )
        x1 = [0.0, 0.1, 0.2, 0.3, 2.6, 3.5, 3.6, 3.7, 3.8, 3.9]
        test = Dataset(
            np.column_stack([x1, np.ones(10)]), np.arange(10) % 2,
            ["x1", "x2"], ["A", "B"],
        )
        boundary = (3.0 - train.features[:, 0].mean()) / train.features[:, 0].std()
        monkeypatch.setattr(
            models, "fit",
            lambda *args, **kwargs: FixedLinearModel([1.0, 0.0], -boundary),
        )
        summaries = run_setting(
            train, test, "lr", ("leafage", "lime", "baseline"),
            lime_cfg=LimeConfig(n_samples=200), fidelity_cfg=FidelityConfig(p=0.1),
        )
        for summary in summaries:
            skipped = np.isnan(summary.per_instance_auc)
            assert np.flatnonzero(skipped).tolist() == [4]
            assert summary.n_skipped == 1 and summary.n_scored == 9

    def test_non_binary_dataset_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        ds = Dataset(X, np.arange(30) % 3, ["x1", "x2"], ["x", "y", "z"])
        train, test = train_test_split(ds, SplitSpec(seed=0))
        with pytest.raises(DataError, match="requires binary datasets"):
            run_setting(train, test, "lr")

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, math.nan, "0.5", None])
    def test_sphere_fraction_outside_open_unit_interval(self, p):
        with pytest.raises(DataError, match="p must lie strictly between 0 and 1"):
            FidelityConfig(p=p)

    def test_unknown_strategy(self):
        ds = generate_artificial(20, seed=0)
        train, test = train_test_split(ds, SplitSpec(seed=0))
        with pytest.raises(DataError, match="unknown strategy"):
            run_setting(train, test, "knn", ("magic",))

    def test_repeated_strategy_rejected_before_training(self, monkeypatch):
        ds = generate_artificial(20, seed=0)
        train, test = train_test_split(ds, SplitSpec(seed=0))

        def must_not_fit(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(models, "fit_on_standardized", must_not_fit)
        with pytest.raises(DataError, match="strategies must be distinct"):
            run_setting(train, test, "lr", ("baseline", "baseline"))

    @pytest.mark.parametrize("columns", [[0], [1, 0]], ids=["first-only", "swapped"])
    def test_test_columns_must_match_training(self, monkeypatch, columns):
        ds = generate_artificial(40, seed=0)
        train, test = train_test_split(ds, SplitSpec())
        names = [test.column_names[j] for j in columns]
        test = Dataset(test.features[:, columns], test.labels, names, test.class_names)

        def must_not_fit(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(models, "fit_on_standardized", must_not_fit)
        with pytest.raises(DataError, match="differ from the training columns"):
            run_setting(train, test, "lr", ("leafage", "lime", "baseline"))

    def test_test_columns_given_as_a_tuple(self):
        train, test = train_test_split(generate_artificial(40, seed=0), SplitSpec())
        renamed = Dataset(test.features, test.labels, ("x1", "x2"), test.class_names)
        strategies = ("leafage", "baseline")
        got = run_setting(train, renamed, "lr", strategies)
        want = run_setting(train, test, "lr", strategies)
        for a, b in zip(got, want, strict=True):
            assert a.per_instance_auc.tobytes() == b.per_instance_auc.tobytes()

    @pytest.mark.parametrize("classifier", ["lr", "knn"])
    def test_one_fit_per_distinct_closest_enemy(self, monkeypatch, classifier):
        calls = {"closest_enemy": [], "sample_local_training_set": [],
                 "fit_local_linear": []}
        for name, log in calls.items():
            def spy(*args, function=getattr(evaluation, name), log=log):
                log.append((args, result := function(*args)))
                return result
            monkeypatch.setattr(evaluation, name, spy)
        ds = generate_artificial(40, seed=5)
        train, test = train_test_split(ds, SplitSpec(seed=5))
        (summary,) = run_setting(train, test, classifier, ("leafage",))
        enemies = [result for _, result in calls["closest_enemy"]]
        assert len(enemies) == summary.n_scored
        assert len(calls["fit_local_linear"]) == len(set(enemies)) < len(enemies)
        local_sets = [args[2] for args, _ in calls["sample_local_training_set"]]
        assert local_sets == list(dict.fromkeys(enemies))

    @pytest.mark.parametrize("classifier", models.ALGORITHMS)
    def test_leafage_surrogates_equal_explains(self, monkeypatch, classifier):
        """Each scored instance's surrogate is the one explain() fits for
        that test row, given in original units, bit for bit."""
        enemies, fits = [], []
        for name, log in (("closest_enemy", enemies), ("fit_local_linear", fits)):
            def spy(*args, function=getattr(evaluation, name), log=log):
                log.append(function(*args))
                return log[-1]
            monkeypatch.setattr(evaluation, name, spy)
        ds = generate_artificial(60, seed=7)
        train, test = train_test_split(ds, SplitSpec(seed=7))
        (summary,) = run_setting(train, test, classifier, ("leafage",))
        scored = np.flatnonzero(~np.isnan(summary.per_instance_auc))
        assert scored.size == len(enemies) > 0
        surrogates = dict(zip(dict.fromkeys(enemies), fits, strict=True))
        fitted = models.fit_on_standardized(classifier, train, seed=0)
        for i, x_border in zip(scored, enemies):
            want = explain(
                fitted.model, train, test.features[i], standardizer=fitted.standardizer
            ).surrogate
            got = surrogates[x_border]
            assert want.x_border == x_border
            assert got.local_indices.tobytes() == want.local_indices.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.intercept.hex() == want.intercept.hex()

    def test_overflowing_test_row_rejected_before_scoring(self, monkeypatch):
        # Training x2 spreads over ~1e-150, so a test x2 of 1e200
        # standardizes to infinity.
        rng = np.random.default_rng(0)
        train = tiny_spread_dataset(rng, 40)
        test = tiny_spread_dataset(rng, 20, wide_row=3)

        def must_not_score(*args):
            raise AssertionError("an instance was scored")

        monkeypatch.setattr(evaluation, "fidelity_sphere", must_not_score)
        for classifier in ("lr", "knn", "rf"):
            with pytest.raises(DataError, match="standardized test row"):
                run_setting(train, test, classifier, ("baseline",))

    def test_setting_tuple(self):
        ds = generate_artificial(30, seed=1)
        train, test = train_test_split(ds, SplitSpec(seed=1))
        (summary,) = run_setting(train, test, "lda", ("baseline",))
        assert summary.setting == ("ad", "B", "lda", "baseline")


def synthetic_summary(setting, values):
    return FidelitySummary(setting, np.asarray(values, dtype=float))


class TestResultsTable:
    def test_single_strategy_bold(self):
        s = synthetic_summary(("d", "c", "m", "leafage"), np.linspace(0.7, 0.9, 30))
        flags = bold_flags([s])
        assert flags[s.setting]

    def test_baseline_not_bold_against_better_strategy(self):
        rng = np.random.default_rng(0)
        baseline = synthetic_summary(("d", "c", "m", "baseline"), np.full(50, 0.5))
        better = synthetic_summary(
            ("d", "c", "m", "leafage"), np.clip(rng.normal(0.75, 0.1, 50), 0, 1)
        )
        flags = bold_flags([better, baseline])
        assert flags[better.setting]
        assert not flags[baseline.setting]

    def test_equal_vectors_both_bold(self):
        values = np.linspace(0.6, 0.8, 40)
        a = synthetic_summary(("d", "c", "m", "leafage"), values)
        b = synthetic_summary(("d", "c", "m", "lime"), values.copy())
        flags = bold_flags([a, b])
        assert flags[a.setting] and flags[b.setting]

    def test_formatting_rule(self):
        assert format_mean_std(0.9994, 0.0003) == "99.9 (0.0)"
        assert format_mean_std(0.5, 0.0) == "50.0 (0.0)"
        assert format_mean_std(float("nan"), float("nan")) == "n/a"

    def test_table_marks_bold(self):
        rng = np.random.default_rng(1)
        rows = [
            synthetic_summary(("d", "c", "m", "lime"), np.clip(rng.normal(0.9, 0.05, 40), 0, 1)),
            synthetic_summary(("d", "c", "m", "baseline"), np.full(40, 0.5)),
        ]
        table = results_table(rows)
        assert "**" in table
        assert "50.0 (0.0)" in table
        assert table.count("**") == 2  # only the winner is wrapped

    def test_csv_output(self, tmp_path):
        rows = [
            synthetic_summary(("d", "c", "m", "leafage"), np.linspace(0.6, 0.9, 20)),
            synthetic_summary(("d", "c", "m", "baseline"), np.full(20, 0.5)),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "setting,strategy,mean_auc,std_auc,n,n_skipped,bold"
        assert lines[1].startswith("d|c|m,leafage,")
        assert lines[2].startswith("d|c|m,baseline,0.5,0.0,20,0,")
