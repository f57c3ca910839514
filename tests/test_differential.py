"""The surrogate kernel, the explain geometry and the fidelity protocol
against frozen references.

``weighted_logistic_fit`` writes its intermediates into reused buffers and
``explain`` measures the instance's distances to the training rows once;
both must give the bits of the plain formulas kept here: the Newton
kernel as whole-array expressions, and each geometry step with its own
distance pass over the rows it reads, a per-row loop in feature order.
At one or two features that distance also has the bits of the einsum
form it replaced.  A fit started from another fit's solution must land
within 1e-6 * max(1, max|beta|) of the fit from zero and, where it
stalls, give that fit's bits.  ``run_setting`` fits one
surrogate per distinct closest enemy, records ``baseline`` as 0.5, starts
each LIME fit after a strategy's first from that first solution, and
counts AUC pairs by binary search; the per-instance loop kept here refits
every instance from zero and ranks every AUC, and ``run_setting``'s AUCs
must still equal its bit for bit.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_rows, rerun_under_haswell
import leafage
from leafage import lime, models
from leafage.core import (
    SURROGATE_L2,
    SURROGATE_MAX_ITER,
    SURROGATE_TOL,
    LeafageConfig,
    LocalSurrogate,
    _euclidean,
    closest_enemy,
    explain,
    retrieve_examples,
    sample_local_training_set,
    weighted_logistic_fit,
)
from leafage.data import SplitSpec, generate_artificial, train_test_split
from leafage.errors import ExplanationError, NoEnemiesError
from leafage.evaluation import KNOWN_STRATEGIES, auc, fidelity_sphere, run_setting


def reference_logistic_fit(features, targets, sample_weight=None, l2=SURROGATE_L2):
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n, d = X.shape
    if np.unique(y).size < 2:
        return np.zeros(d), 0.0
    sw = np.ones(n) if sample_weight is None else np.asarray(sample_weight, float)
    Xa = np.empty((n, d + 1))
    Xa[:, :d] = X
    Xa[:, d] = 1.0
    penalty = np.full(d + 1, l2)
    penalty[d] = 0.0
    ridge = np.diag(penalty)
    beta = np.zeros(d + 1)
    z_lin = Xa @ beta
    current = float(sw @ np.full(n, np.log(2.0)))
    for _ in range(SURROGATE_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-np.clip(z_lin, -35.0, 35.0)))
        grad = Xa.T @ (sw * (p - y)) + penalty * beta
        curvature = sw * p * (1.0 - p)
        hess = (Xa * curvature[:, None]).T @ Xa + ridge
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(hess + 1e-10 * np.eye(d + 1), grad)
        scale = 1.0
        for _ in range(30):
            candidate = beta - scale * step
            z_new = Xa @ candidate
            softplus = np.maximum(z_new, 0.0) + np.log1p(np.exp(-np.abs(z_new)))
            new = float(
                sw @ (softplus - y * z_new)
                + 0.5 * l2 * (candidate[:d] @ candidate[:d])
            )
            if new <= current:
                break
            scale *= 0.5
        else:
            break
        moved = scale * np.max(np.abs(step))
        beta, z_lin, current = candidate, z_new, new
        if moved < SURROGATE_TOL:
            break
    return beta[:d], float(beta[d])


def assert_same_fit(X, y, sample_weight=None, l2=SURROGATE_L2):
    weights, intercept = weighted_logistic_fit(X, y, sample_weight, l2)
    ref_weights, ref_intercept = reference_logistic_fit(X, y, sample_weight, l2)
    assert weights.tobytes() == ref_weights.tobytes()
    assert np.float64(intercept).tobytes() == np.float64(ref_intercept).tobytes()


def draw_targets(rng, X, kind):
    if kind == "separable":
        rule = X @ rng.normal(size=X.shape[1]) + rng.normal(scale=0.3)
        return (rule >= 0).astype(int)
    if kind == "overlapping":
        logits = 2.0 * X[:, 0] + rng.logistic(size=X.shape[0])
        return (logits >= 0).astype(int)
    return np.full(X.shape[0], int(rng.integers(0, 2)))


class TestLogisticKernel:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 60),
        st.integers(1, 5),
        st.sampled_from(["separable", "overlapping", "single"]),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_small_fits(self, seed, n, d, kind, weighted):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = draw_targets(rng, X, kind)
        assert_same_fit(X, y, rng.uniform(0.05, 2.0, n) if weighted else None)

    @pytest.mark.parametrize("kind", ["separable", "overlapping"])
    @pytest.mark.parametrize("seed", range(2))
    def test_lime_sized_kernel_weighted_fit(self, seed, kind):
        d = 2
        rng = np.random.default_rng(seed)
        samples = lime.lime_sample(d, lime.LimeConfig(seed=seed))
        z = rng.normal(size=d)
        weights = lime.kernel_weights(z, samples)
        assert_same_fit(samples, draw_targets(rng, samples, kind), weights)

    @pytest.mark.parametrize("case", ["zero_column", "zero_weights"])
    def test_singular_hessian_falls_back(self, monkeypatch, case):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = draw_targets(rng, X, "overlapping")
        sw, l2 = None, SURROGATE_L2
        if case == "zero_column":
            # Without a ridge, a feature that is always 0 zeroes a row and a
            # column of the Hessian.
            X[:, 1] = 0.0
            l2 = 0.0
        else:
            # Zero weights leave only the ridge, which spares the intercept.
            sw = np.zeros(30)
        solve = np.linalg.solve
        singular = []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        weighted_logistic_fit(X, y, sw, l2)
        assert singular
        assert_same_fit(X, y, sw, l2)


KINDS = ["separable", "overlapping", "single"]


class TestWarmStart:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(2, 60),
        st.integers(1, 5),
        st.sampled_from(KINDS),
        st.sampled_from(KINDS),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_warm_fit_lands_on_cold_fit(
        self, seed, start_seed, n, d, kind, start_kind, weighted
    ):
        def draw(draw_seed, draw_kind):
            rng = np.random.default_rng(draw_seed)
            X = rng.normal(size=(n, d))
            y = draw_targets(rng, X, draw_kind)
            return X, y, rng.uniform(0.05, 2.0, n) if weighted else None

        X, y, sw = draw(seed, kind)
        start = np.append(*weighted_logistic_fit(*draw(start_seed, start_kind)))
        cold = np.append(*weighted_logistic_fit(X, y, sw))
        warm = np.append(*weighted_logistic_fit(X, y, sw, start=start))
        assert np.max(np.abs(warm - cold)) <= 1e-6 * max(1.0, np.max(np.abs(cold)))

    def test_stalled_warm_fit_refits_from_zero(self, monkeypatch):
        # From this start every row saturates, and the line search stalls.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 1))
        y = draw_targets(rng, X, "overlapping")
        refits = []

        def spy(*args, **kwargs):
            refits.append(kwargs.get("start"))
            return weighted_logistic_fit(*args, **kwargs)

        monkeypatch.setattr(leafage.core, "weighted_logistic_fit", spy)
        warm = weighted_logistic_fit(X, y, start=[-1e4, 0.0])
        assert refits == [None]
        cold = reference_logistic_fit(X, y)
        assert np.append(*warm).tobytes() == np.append(*cold).tobytes()


def reference_euclidean(rows, point):
    """Row by row, the squared differences added in feature order."""
    out = []
    for row in np.asarray(rows).tolist():
        s = 0.0
        for value, centre in zip(row, point.tolist()):
            t = value - centre
            s += t * t
        out.append(math.sqrt(s))
    return np.array(out)


def reference_closest_enemy(features, predicted, z, c_z):
    enemy_rows = np.flatnonzero(predicted != c_z)
    dist = reference_euclidean(features[enemy_rows], z)
    return int(enemy_rows[np.argmin(dist)])


def reference_local_set(features, predicted, x_border, quota):
    dist = reference_euclidean(features, features[x_border])
    picked = []
    for cls in (0, 1):
        members = np.flatnonzero(predicted == cls)
        picked.append(members[np.lexsort((members, dist[members]))[:quota]])
    return np.sort(np.concatenate(picked))


def reference_retrieve(features, predicted, s, z, c_z, k):
    euclid = reference_euclidean(features, z)
    if s.degenerate:
        b = euclid
    else:
        b = np.abs(features @ s.weights - z @ s.weights) * euclid

    def top(mask):
        idx = np.flatnonzero(mask)
        return [(int(i), float(b[i])) for i in idx[np.lexsort((idx, b[idx]))[:k]]]

    duplicate = np.all(features == z, axis=1)
    return top((predicted == c_z) & ~duplicate), top(predicted != c_z)


def geometry_case(rng, n, d):
    """Rows around an instance ``z`` whose first value is 0, with exact
    copies of ``z``, a row at ``z + 1e-170`` (its distance underflows to
    0), repeated rows and both classes."""
    z = rng.normal(size=d)
    z[0] = 0.0
    X = rng.normal(size=(n, d))
    X[rng.integers(0, n, size=n // 4)] = X[0]
    near = z.copy()
    near[0] = 1e-170
    copies = int(rng.integers(0, 3))
    X = np.vstack([X, np.tile(z, (copies, 1)), near[None, :]])
    X = X[rng.permutation(X.shape[0])]
    predicted = rng.integers(0, 2, size=X.shape[0])
    predicted[:2] = [0, 1]
    return X, predicted, z


class TestGeometry:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 30])
    @given(st.integers(0, 2**32 - 1), st.integers(2, 120), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_subset_formulas(self, d, seed, n, degenerate):
        rng = np.random.default_rng(seed)
        X, predicted, z = geometry_case(rng, n, d)
        c_z = int(rng.integers(0, 2))
        cfg = LeafageConfig(
            i_small=int(rng.integers(2, 6)), k_examples=int(rng.integers(1, 8))
        )
        weights = np.zeros(d) if degenerate else rng.normal(size=d)
        s = LocalSurrogate(weights=weights, intercept=0.0)

        distances = _euclidean(X, z)
        rows = class_rows(predicted)
        x_border = closest_enemy(distances, rows[1 - c_z])
        assert x_border == reference_closest_enemy(X, predicted, z, c_z)
        assert np.array_equal(
            sample_local_training_set(X, rows, x_border, cfg),
            reference_local_set(X, predicted, x_border, cfg.i_small * d),
        )
        assert retrieve_examples(
            X, distances, rows[c_z], rows[1 - c_z], s, z, cfg.k_examples
        ) == reference_retrieve(X, predicted, s, z, c_z, cfg.k_examples)

    @pytest.mark.parametrize("d", [1, 2])
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_or_two_features_match_einsum(self, d, data):
        value = st.one_of(
            st.floats(-1e3, 1e3),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160]),
            st.floats(5e153, 2e154),
            st.floats(-2e154, -5e153),
        )
        row = st.lists(value, min_size=d, max_size=d)
        point = data.draw(row)
        rows = data.draw(st.lists(row | st.just(point), min_size=1, max_size=20))
        rows += rows[: data.draw(st.integers(0, len(rows)))]
        # A row 2e154 from the point in every feature: its square overflows.
        rows.append([p - 2e154 if p > 0 else p + 2e154 for p in point])
        X, z = np.array(rows), np.array(point)
        with np.errstate(over="ignore"):
            diff = X - z
            expected = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for layout in (np.ascontiguousarray(X), np.asfortranarray(X)):
                assert _euclidean(layout, z).tobytes() == expected.tobytes()
        assert expected[-1] == np.inf

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 30])
    def test_underflowing_row_stays_an_ally(self, d):
        rng = np.random.default_rng(d)
        z = rng.normal(size=d)
        z[0] = 0.0
        near = z.copy()
        near[0] = 1e-170
        X = np.vstack([rng.normal(size=(10, d)), z, near, z])
        predicted = np.array([0] * 5 + [1] * 8)
        distances = _euclidean(X, z)
        assert distances[10:].tolist() == [0.0, 0.0, 0.0]
        s = LocalSurrogate(weights=rng.normal(size=d), intercept=0.0)
        rows = class_rows(predicted)
        allies, _ = retrieve_examples(X, distances, rows[1], rows[0], s, z, 3)
        assert allies[0] == (11, 0.0)
        assert {i for i, _ in allies}.isdisjoint({10, 12})

    def test_far_instances_under_warnings_as_errors(self):
        ds = generate_artificial(100, seed=0)
        fitted = models.fit_on_standardized("rf", ds, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            explain(fitted.model, ds, np.array([1e150, 0.0]),
                    standardizer=fitted.standardizer)
            with pytest.raises(ExplanationError, match="too far.*a dissimilarity"):
                explain(fitted.model, ds, np.array([1e160, 0.0]),
                        standardizer=fitted.standardizer)


def reference_auc(labels, scores):
    """AUC by the rank-sum identity: mean ranks over all scores, ties
    sharing theirs, then the positives' rank sum less its minimum."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    sv = scores[order]
    boundary = np.concatenate(([True], sv[1:] != sv[:-1]))
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], scores.size)
    ranks = np.empty(scores.size)
    ranks[order] = ((starts + ends - 1) / 2.0 + 1.0)[np.cumsum(boundary) - 1]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return (float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# A few values drawn often enough to tie, infinities among them.
TIED = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf])
SCORE = st.one_of(TIED, st.floats(allow_nan=False, allow_infinity=True))


class TestAuc:
    @given(
        st.lists(SCORE, min_size=1, max_size=200),
        st.lists(SCORE, min_size=1, max_size=200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_rank_sum(self, pos, neg, seed):
        scores = np.array(pos + neg)
        labels = np.arange(scores.size) < len(pos)
        order = np.random.default_rng(seed).permutation(scores.size)
        labels, scores = labels[order], scores[order]
        assert auc(labels, scores).hex() == reference_auc(labels, scores).hex()

    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_every_score_tied(self, n):
        labels = np.arange(2 * n) < n
        for value in (-np.inf, 0.0, np.inf):
            scores = np.full(2 * n, value)
            assert auc(labels, scores) == reference_auc(labels, scores) == 0.5


def reference_run_setting(train, test, classifier, leafage_cfg, lime_cfg, p):
    """Every strategy's per-instance AUCs with a fresh local set and fit
    for every test row, a zero-weight ``baseline`` surrogate, and every
    AUC by rank sums."""
    fitted = models.fit_on_standardized(classifier, train, seed=0)
    model = fitted.model
    X_train = fitted.standardizer.transform(train.features)
    X_test = fitted.standardizer.transform(test.features)
    pred_train = model.predict_labels(X_train)
    pred_test = model.predict_labels(X_test)
    bins = lime.QuartileBins.fit(X_train)
    scores = {s: np.full(test.n, np.nan) for s in KNOWN_STRATEGIES}
    for i in range(test.n):
        try:
            sphere = fidelity_sphere(X_test, pred_test, i, p)
        except NoEnemiesError:
            continue
        labels = pred_test[sphere] == 1
        z, c_z = X_test[i], int(pred_test[i])
        if labels.all() or not labels.any() or (pred_train == c_z).all():
            continue
        x_border = reference_closest_enemy(X_train, pred_train, z, c_z)
        local = reference_local_set(
            X_train, pred_train, x_border, leafage_cfg.i_small * train.d
        )
        weights, intercept = reference_logistic_fit(X_train[local], pred_train[local])
        seed = np.random.SeedSequence([lime_cfg.seed, i]).generate_state(1)[0]
        cfg_i = dataclasses.replace(lime_cfg, seed=int(seed))
        surrogates = {
            "leafage": LocalSurrogate(weights, intercept),
            "lime": lime.lime_fit(model, z, cfg_i),
            "baseline": LocalSurrogate(np.zeros(test.d), 0.0),
            "lime-quartile": lime.lime_quartile_fit(model, bins, z, cfg_i),
        }
        for strategy, surrogate in surrogates.items():
            scores[strategy][i] = reference_auc(labels, surrogate.score(X_test[sphere]))
    return scores


@pytest.mark.parametrize("classifier", models.ALGORITHMS)
def test_run_setting_equals_per_instance_refits(classifier):
    ds = generate_artificial(40, 5)
    train, test = train_test_split(ds, SplitSpec(seed=5))
    leafage_cfg = LeafageConfig(i_small=3)
    lime_cfg = lime.LimeConfig(n_samples=200, seed=5)
    summaries = run_setting(
        train, test, classifier, KNOWN_STRATEGIES,
        leafage_cfg=leafage_cfg, lime_cfg=lime_cfg,
    )
    reference = reference_run_setting(
        train, test, classifier, leafage_cfg, lime_cfg, 0.95
    )
    assert summaries[0].n_scored > 0
    for summary in summaries:
        assert (
            summary.per_instance_auc.tobytes()
            == reference[summary.strategy].tobytes()
        ), summary.strategy


def test_module_under_haswell_kernels():
    # A buffer layout can match the plain formulas' bits on this CPU's
    # kernels and not on the Haswell ones, so the module runs again.
    rerun_under_haswell(__file__)
