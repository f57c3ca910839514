import math
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import child_env, rerun_under_haswell, separable_blobs
from leafage.data import Dataset, SplitSpec, generate_artificial, train_test_split
from leafage.errors import ModelError
from leafage import core, models
from leafage.models import (
    DecisionTreeModel,
    KNearestModel,
    LinearSVMModel,
    LogisticRegressionModel,
    RandomForestModel,
    fit,
)
from leafage.models import linear, tree
from leafage.models.neighbors import BLOCK_ELEMENTS


def as_dataset(X, y):
    cols = [f"f{i}" for i in range(X.shape[1])]
    return Dataset(X, y, cols, ["neg", "pos"])


def gradient_descent_lr(X, labels, max_iter=1000, tol=1e-6):
    """Reference lr fit: full-batch gradient descent with a Lipschitz step on
    the mean logistic loss plus 0.5 * (LR_L2 / n) * ||w||^2."""
    y = np.asarray(labels, dtype=np.float64)
    n, d = X.shape
    lam = linear.LR_L2 / n
    w = np.zeros(d)
    b = 0.0
    step = 1.0 / (0.25 * (np.linalg.norm(X, 2) ** 2 / n + 1.0) + lam)
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(-np.clip(X @ w + b, -35.0, 35.0)))
        grad_w = X.T @ (p - y) / n + lam * w
        grad_b = float(np.mean(p - y))
        w -= step * grad_w
        b -= step * grad_b
        if max(np.max(np.abs(grad_w)), abs(grad_b)) < tol:
            return w, b
    raise AssertionError("reference gradient descent did not converge")


@st.composite
def lr_training_sets(draw):
    """Rows on a coarse grid (so some repeat) or spread uniformly, some
    duplicated under the other label, labelled at random or by a
    hyperplane (separable)."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        cell = st.integers(-3, 3).map(float)
    else:
        cell = st.floats(-5.0, 5.0)
    X = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=np.float64)
    if draw(st.booleans()):
        normal = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        y = (X @ normal >= np.median(X @ normal)).astype(np.float64)
    else:
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=np.float64)
    dup = draw(st.lists(st.integers(0, n - 1), max_size=5))
    X = np.vstack([X, X[dup]])
    y = np.concatenate([y, 1.0 - y[dup]])
    assume(np.unique(y).size == 2)
    return X, y


class TestLinearFamily:
    def test_svm_separable_blobs_perfect(self):
        X, y = separable_blobs()
        model = LinearSVMModel().fit(X, y)
        assert np.array_equal(model.predict_labels(X), y)

    def test_lr_separable_blobs_perfect(self):
        X, y = separable_blobs(seed=1)
        model = LogisticRegressionModel().fit(X, y)
        assert np.array_equal(model.predict_labels(X), y)

    def test_lda_separable_blobs_perfect(self):
        X, y = separable_blobs(seed=2)
        model = fit("lda", as_dataset(X, y))
        assert np.array_equal(model.predict_labels(X), y)

    @pytest.mark.parametrize("algorithm", ["lr", "svm", "lda"])
    def test_boundary_exactly_linear(self, algorithm):
        # Points with equal score stay equal-scored along their segment,
        # checked through the exposed hyperplane.
        X, y = separable_blobs(seed=3)
        model = fit(algorithm, as_dataset(X, y))
        w, b = model.weights, model.intercept
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=2)
            # construct a second point with the same score
            direction = np.array([-w[1], w[0]])  # orthogonal to w
            c = a + rng.uniform(-3, 3) * direction
            for lam in rng.uniform(0, 1, 5):
                mid = lam * a + (1 - lam) * c
                assert (mid @ w + b) == pytest.approx(a @ w + b, abs=1e-9)

    @given(lr_training_sets())
    @settings(max_examples=200, deadline=None)
    def test_lr_reaches_penalized_optimum(self, case):
        # Stationarity of the summed logistic loss plus 0.5 * LR_L2 * ||w||^2
        # with an unpenalized intercept.
        X, y = case
        model = LogisticRegressionModel().fit(X, y)
        w, b = model.weights, model.intercept
        p = 0.5 * (1.0 + np.tanh(0.5 * (X @ w + b)))
        tol = 1e-6 * X.shape[0]
        assert np.all(np.abs(X.T @ (p - y) + linear.LR_L2 * w) <= tol)
        assert abs(np.sum(p - y)) <= tol

    @pytest.mark.parametrize("n_per_class", [42, 250, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_lr_matches_gradient_descent(self, n_per_class, seed):
        ds = generate_artificial(n_per_class, seed)
        model = LogisticRegressionModel().fit(ds.features, ds.labels)
        w, b = gradient_descent_lr(ds.features, ds.labels)
        assert np.max(np.abs(model.weights - w)) <= 1e-4
        assert abs(model.intercept - b) <= 1e-4
        lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
        grid = np.stack(
            np.meshgrid(np.linspace(lo[0], hi[0], 40), np.linspace(lo[1], hi[1], 50)),
            axis=-1,
        ).reshape(-1, 2)
        for rows in (ds.features, grid):
            assert np.array_equal(
                model.predict_labels(rows), (rows @ w + b >= 0.0).astype(np.int64)
            )


class TestTrees:
    def test_dt_xor_pattern(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        # Hand oracle: no single axis-aligned split separates XOR, so the
        # tree must split twice; full growth reaches 100% train accuracy.
        model = DecisionTreeModel().fit(X, y)
        assert np.array_equal(model.predict_labels(X), y)

    def test_dt_deterministic(self):
        ds = generate_artificial(100, seed=5)
        a = DecisionTreeModel().fit(ds.features, ds.labels)
        b = DecisionTreeModel().fit(ds.features, ds.labels)
        grid = np.random.default_rng(0).normal(size=(200, 2))
        assert np.array_equal(a.predict_labels(grid), b.predict_labels(grid))

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_dt_labels_distinct_training_rows(self, data, d):
        # Rows draw one feature from a few base values, each moved up by
        # 0-2 ulps, and leave the others 0; many rows then differ by a
        # single ulp, where a midpoint threshold can round onto the lower
        # value.
        bases = data.draw(
            st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3), label="bases"
        )
        entries = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(bases),
                    st.integers(0, 2),
                    st.integers(0, d - 1),
                    st.integers(0, 1),
                ),
                min_size=2,
                max_size=40,
            ),
            label="rows",
        )
        X = np.zeros((len(entries), d))
        for i, (base, ulps, feature, _) in enumerate(entries):
            value = base
            for _ in range(ulps):
                value = np.nextafter(value, np.inf)
            X[i, feature] = value
        y = np.array([label for *_, label in entries])
        _, first = np.unique(X, axis=0, return_index=True)
        keep = np.sort(first)
        assume(keep.size >= 2)
        X, y = X[keep], y[keep]
        if np.unique(y).size < 2:
            y[0] = 1 - y[0]
        model = DecisionTreeModel().fit(X, y)
        assert np.array_equal(model.predict_labels(X), y)

    def test_dt_splits_between_huge_values(self):
        # Their sum overflows, so their midpoint is infinite.
        X = np.array([[1.7e308], [1.75e308]])
        y = np.array([0, 1])
        assert np.array_equal(DecisionTreeModel().fit(X, y).predict_labels(X), y)

    def test_rf_deterministic_given_seed(self):
        ds = generate_artificial(80, seed=3)
        grid = np.random.default_rng(2).normal(size=(100, 2))
        a = RandomForestModel().fit(ds.features, ds.labels, seed=7)
        b = RandomForestModel().fit(ds.features, ds.labels, seed=7)
        assert np.array_equal(a.predict_labels(grid), b.predict_labels(grid))


def thresholds(model):
    return [float(t) for trained in model._trees
            for t in trained.threshold[trained.feature >= 0]]


@st.composite
def tree_training_sets(draw):
    """rf or dt on 2-40 rows of d = 1-4 features drawn from a few values
    (so rows and values repeat), both labels present."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    values = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6))
    row = st.lists(st.sampled_from(values), min_size=d, max_size=d)
    X = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float64)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]
    algorithm = draw(st.sampled_from(["rf", "dt"]))
    seed = draw(st.integers(0, 2**16))
    return algorithm, X, y, seed


def edge_rows(data, model, X):
    """At least two rows on thresholds, on training values, on signed zeros
    and non-finite values, and anywhere between."""
    pool = thresholds(model) + X.ravel().tolist()
    pool += [0.0, -0.0, np.inf, -np.inf, np.nan]
    value = st.one_of(st.sampled_from(pool), st.floats(-5.0, 5.0))
    d = X.shape[1]
    rows = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                       min_size=1, max_size=30)), dtype=np.float64)
    return np.vstack([rows, rows[::-1]])


class TestThresholdGrid:
    """The grid lookup of ``_scores`` against ``_traverse``, which
    routes every row through every tree's nodes."""

    @given(tree_training_sets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_scores_equal_traversal_bit_for_bit(self, case, data):
        algorithm, X, y, seed = case
        model = models.ALGORITHMS[algorithm]().fit(X, y, seed=seed)
        assert model._grid is not None
        rows = edge_rows(data, model, X)
        assert np.array_equal(model._scores(rows), model._traverse(rows))

    @pytest.mark.parametrize("algorithm", ["rf", "dt"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_empty_batch(self, monkeypatch, algorithm, d):
        X = np.random.default_rng(d).normal(size=(40, d))
        y = np.arange(40) % 2
        for cap in (tree.GRID_MAX_CELLS, 0):
            monkeypatch.setattr(tree, "GRID_MAX_CELLS", cap)
            model = models.ALGORITHMS[algorithm]().fit(X, y)
            assert (model._grid is None) == (cap == 0)
            out = model._scores(np.empty((0, d)))
            assert out.dtype == np.float64 and out.shape == (0,)

    @pytest.mark.parametrize("algorithm", ["rf", "dt"])
    def test_forest_over_the_cap_traverses(self, monkeypatch, algorithm):
        ds = generate_artificial(100, seed=4)
        gridded = models.ALGORITHMS[algorithm]().fit(ds.features, ds.labels, seed=3)
        cells = gridded._grid[1].size
        monkeypatch.setattr(tree, "GRID_MAX_CELLS", cells - 1)
        traversed = models.ALGORITHMS[algorithm]().fit(ds.features, ds.labels, seed=3)
        assert traversed._grid is None
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(2000, 2)) * 2.0
        rows[:500] = rng.choice(thresholds(gridded), size=(500, 2))
        rows[100:110] = np.nan
        rows[110:120] = np.inf
        assert np.array_equal(
            traversed._scores(rows), gridded._scores(rows)
        )

    def test_no_split_forest_is_one_cell(self):
        model = DecisionTreeModel().fit(np.ones((4, 2)), [0, 1, 1, 0])
        assert model._grid[1].size == 1
        assert np.array_equal(model._scores(np.zeros((3, 2))), np.full(3, 0.5))

    def test_cap_check_neither_allocates_nor_overflows(self):
        # 30 features, each cut by dozens of thresholds: the cell count
        # overflows int64 many times over.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 30))
        y = rng.integers(0, 2, size=400)
        tracemalloc.start()
        try:
            model = RandomForestModel().fit(X, y, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sizes = [e.size + 1 for _, e in tree._grid_edges(model._trees)]
        assert len(sizes) == 30
        assert math.prod(sizes) > 2**63
        assert model._grid is None
        assert peak < tree.GRID_MAX_CELLS * 8


@st.composite
def grid_searches(draw):
    """Sorted distinct edges, 1, 2**k - 1, 2**k or 2**k + 1 of them, and
    values on the edges, on their neighbouring doubles, on signed zeros,
    infinities and NaN, and anywhere."""
    size = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65]))
    edges = np.unique(draw(st.lists(st.floats(allow_nan=False), min_size=size,
                                    max_size=size, unique=True)))
    assert edges.size == size
    with np.errstate(over="ignore"):  # the largest doubles step to inf
        below, above = np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)
    pool = [*edges, *below, *above, 0.0, -0.0, np.inf, -np.inf, np.nan]
    value = st.one_of(st.sampled_from(pool), st.floats())
    return edges, np.array(draw(st.lists(value, max_size=40)), dtype=np.float64)


class TestGridSearch:
    """The branch-free search ``_cells`` against ``np.searchsorted``."""

    @given(grid_searches())
    @settings(max_examples=300, deadline=None)
    def test_equals_searchsorted_right(self, case):
        edges, values = case
        padded = tree._padded(edges)
        assert padded.size > edges.size and padded.size & (padded.size - 1) == 0
        got = tree._cells(padded, edges.size, values)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(edges, values, side="right"))


@pytest.fixture(scope="module")
def over_cap_forest():
    """A forest whose threshold grid exceeds GRID_MAX_CELLS on its own."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 3))
    y = rng.integers(0, 2, size=300)
    return RandomForestModel().fit(X, y, seed=0), X


class TestOneRowWalk:
    """A one-row batch walks each tree node to node; it scores each row
    bit for bit as the level-by-level traversal of a larger batch does."""

    @staticmethod
    def check_rows_one_at_a_time(model, rows):
        batch = model._traverse(rows)
        walked = np.concatenate([model._traverse(row[None, :]) for row in rows])
        assert np.array_equal(walked.view(np.uint64), batch.view(np.uint64))

    @given(tree_training_sets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_small_forest_forced_over_the_cap(self, case, data):
        algorithm, X, y, seed = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree, "GRID_MAX_CELLS", 0)
            model = models.ALGORITHMS[algorithm]().fit(X, y, seed=seed)
        assert model._grid is None
        self.check_rows_one_at_a_time(model, edge_rows(data, model, X))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_forest_over_the_cap(self, over_cap_forest, data):
        model, X = over_cap_forest
        assert model._grid is None
        self.check_rows_one_at_a_time(model, edge_rows(data, model, X))


class TestKNN:
    def test_training_rows_recovered(self):
        ds = generate_artificial(100, seed=1)
        model = KNearestModel().fit(ds.features, ds.labels)
        assert np.array_equal(model.predict_labels(ds.features), ds.labels)

    def test_tie_breaks_to_lowest_index(self):
        X = np.array([[0.0], [2.0], [4.0]])
        y = np.array([0, 1, 0])
        model = KNearestModel().fit(X, y)
        # query at 1.0 is equidistant from rows 0 and 1 -> row 0 wins
        assert model.predict_labels(np.array([[1.0]]))[0] == 0


def difference_form_labels(train, labels, rows, block_rows=2048):
    """Reference 1-NN: exact sums of (x - t)^2, argmin takes the lowest index."""
    out = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, rows.shape[0], block_rows):
        block = rows[start : start + block_rows]
        diff = block[:, None, :] - train[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        out[start : start + block.shape[0]] = labels[np.argmin(dist2, axis=1)]
    return out


def first_copy_labels(train, labels):
    """Label of the lowest-index training row equal to each training row."""
    first = [int(np.flatnonzero((train == row).all(axis=1))[0]) for row in train]
    return labels[first]


@st.composite
def tie_heavy_knn_cases(draw):
    """Scaled integer-grid training rows, some duplicated under the other
    label, and queries on the rows, on midpoints of row pairs and on random
    points; an offset of 1e6 is where the Gram form cancels worst."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 25))
    cell = st.integers(-3, 3)
    grid = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                  min_size=n, max_size=n)), dtype=np.float64)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.min() == labels.max():
        labels[0] ^= 1
    dup = draw(st.lists(st.integers(0, n - 1), max_size=5))
    grid = np.vstack([grid, grid[dup]])
    labels = np.concatenate([labels, 1 - labels[dup]])
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
    offset = draw(st.sampled_from([0.0, 0.7, 1e6, -1e6 + 0.1]))
    train = grid * scale + offset
    pairs = draw(st.lists(st.tuples(st.integers(0, len(grid) - 1),
                                    st.integers(0, len(grid) - 1)), max_size=20))
    mids = np.array([(train[a] + train[b]) / 2 for a, b in pairs]).reshape(-1, d)
    loose = np.array(draw(st.lists(
        st.lists(st.floats(-4, 4), min_size=d, max_size=d), max_size=20
    ))).reshape(-1, d)
    return train, labels, np.vstack([train, mids, loose + offset])


class TestKNNGramForm:
    """The Gram-form predictor against the exact difference form."""

    @given(tie_heavy_knn_cases())
    @settings(max_examples=300, deadline=None)
    def test_labels_equal_difference_form(self, case):
        train, labels, queries = case
        model = KNearestModel().fit(train, labels)
        got = model.predict_labels(queries)
        assert np.array_equal(got, difference_form_labels(train, labels, queries))
        # the first rows of the batch are the training rows themselves
        assert np.array_equal(got[: len(train)], first_copy_labels(train, labels))

    @pytest.mark.parametrize("offset", [0.0, 1e6 + 0.1])
    def test_batch_over_several_blocks(self, offset):
        rng = np.random.default_rng(5)
        n_train, d = 4096, 3
        train = rng.integers(-4, 5, size=(n_train, d)) * 0.1 + offset
        labels = rng.integers(0, 2, size=n_train)
        pairs = rng.integers(0, n_train, size=(300, 2))
        queries = np.vstack([
            train[:300],
            (train[pairs[:, 0]] + train[pairs[:, 1]]) / 2,
            rng.uniform(-5, 5, size=(300, d)) + offset,
        ])
        assert queries.shape[0] > 3 * (BLOCK_ELEMENTS // n_train)
        model = KNearestModel().fit(train, labels)
        assert np.array_equal(
            model.predict_labels(queries),
            difference_form_labels(train, labels, queries),
        )

    @given(st.integers(0, 2**32 - 1), st.integers(1000, 3000), st.integers(1, 4),
           st.sampled_from([1.0, 0.1, 1.0 / 3.0]), st.sampled_from([0.0, 1e6 + 0.1]))
    @settings(max_examples=20, deadline=None)
    def test_tie_heavy_batch_over_several_blocks(self, seed, n_train, d, scale, offset):
        # Integer-grid rows repeat many times over, often under both labels.
        rng = np.random.default_rng(seed)
        train = rng.integers(-3, 4, size=(n_train, d)) * scale + offset
        labels = rng.integers(0, 2, size=n_train)
        block_rows = BLOCK_ELEMENTS // n_train
        pairs = rng.integers(0, n_train, size=(block_rows, 2))
        queries = np.vstack([
            train[:block_rows],
            (train[pairs[:, 0]] + train[pairs[:, 1]]) / 2,
            rng.uniform(-4, 4, size=(block_rows, d)) + offset,
        ])
        model = KNearestModel().fit(train, labels)
        assert np.array_equal(
            model.predict_labels(queries),
            difference_form_labels(train, labels, queries),
        )

    @pytest.mark.parametrize("offset", [0.0, 1e6 + 0.1])
    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0),
                                               (1, 1), (3, 1)])
    def test_batch_sizes_around_the_block(self, blocks, extra, offset):
        # A short last block reads only the leading rows of the buffers the
        # earlier, full blocks wrote.
        rng = np.random.default_rng(blocks * 3 + extra)
        n_train, d = 1000, 3
        train = rng.integers(-3, 4, size=(n_train, d)) * 0.1 + offset
        labels = rng.integers(0, 2, size=n_train)
        block_rows = BLOCK_ELEMENTS // n_train
        n_rows = blocks * block_rows + extra
        picks = rng.integers(0, n_train, size=(n_rows, 2))
        kind = rng.integers(0, 3, size=(n_rows, 1))
        queries = np.select(
            [kind == 0, kind == 1],
            [train[picks[:, 0]], (train[picks[:, 0]] + train[picks[:, 1]]) / 2],
            rng.uniform(-0.4, 0.4, size=(n_rows, d)) + offset,
        )
        got = KNearestModel().fit(train, labels).predict_labels(queries)
        assert got.shape == (n_rows,)
        assert np.array_equal(got, difference_form_labels(train, labels, queries))

    def test_non_finite_and_huge_queries(self):
        # Every difference-form distance of an infinite or overflowing query
        # is inf, so row 0 wins; the Gram form alone would pick row 1.
        train = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 2.0]])
        labels = np.array([1, 0, 1, 0])
        inf, nan = np.inf, np.nan
        queries = np.array([
            [nan, 0.0], [inf, 0.0], [-inf, 0.0], [inf, inf], [inf, -inf],
            [1e308, 0.0], [1e200, 1e200], [-1e200, 3.0], [1e160, 0.0], [0.0, 0.0],
        ])
        model = KNearestModel().fit(train, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.predict_labels(queries)
        assert np.array_equal(got, difference_form_labels(train, labels, queries))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_empty_batch(self, d):
        rng = np.random.default_rng(d)
        model = KNearestModel().fit(rng.normal(size=(6, d)), np.arange(6) % 2)
        out = model.predict_labels(np.empty((0, d)))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_relabel_10k_rows_memory_stays_flat(self):
        # ru_maxrss is the process peak, so measure in a fresh interpreter.
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from leafage.models import KNearestModel

            rng = np.random.default_rng(0)
            train = rng.normal(size=(12_000, 2))
            labels = rng.integers(0, 2, size=12_000)
            KNearestModel().fit(train[:100], labels[:100]).predict_labels(train[:10])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # fit labels all 12k training rows
            model = KNearestModel().fit(train, labels)
            assert (model.predict_labels(train) == labels).all()
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) / 1024.0)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, check=True, env=child_env(),
        )
        growth_mb = float(done.stdout.strip())
        assert growth_mb < 100.0, f"peak RSS grew {growth_mb:.0f} MB"


class TestFitFactory:
    def test_algorithms_in_canonical_order(self):
        assert tuple(models.ALGORITHMS) == ("lr", "svm", "lda", "dt", "rf", "knn")
        assert all(cls.descriptor == name for name, cls in models.ALGORITHMS.items())

    def test_unknown_algorithm(self):
        ds = generate_artificial(10, seed=0)
        with pytest.raises(ModelError) as exc:
            fit("mystery", ds)
        assert str(exc.value) == (
            "unknown algorithm 'mystery'; "
            "choose from ('lr', 'svm', 'lda', 'dt', 'rf', 'knn')"
        )

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        y = np.zeros(5, dtype=int)
        ds = Dataset(X + np.arange(5)[:, None], y, ["a", "b"], ["only", "other"])
        with pytest.raises(ModelError, match="single class"):
            fit("lr", ds)

    @pytest.mark.parametrize("algorithm", models.ALGORITHMS)
    def test_three_class_labels_rejected(self, algorithm):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.arange(30) % 3
        ds = Dataset(X, y, ["a", "b"], ["x", "y", "z"])
        with pytest.raises(ModelError, match="one-vs-rest"):
            fit(algorithm, ds)

    @pytest.mark.parametrize("algorithm", models.ALGORITHMS)
    @pytest.mark.parametrize("features, labels, message", [
        ([[0.0], [1.0], [np.nan], [3.0]], [0, 1, 0, 1], "finite"),
        ([[0.0], [np.inf], [2.0], [3.0]], [0, 1, 0, 1], "finite"),
        ([[0.0, -np.inf], [1.0, 0.0], [2.0, 1.0]], [0, 1, 0], "finite"),
        ([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1], "2-d"),
        (np.zeros((4, 1, 1)), [0, 1, 0, 1], "2-d"),
        ([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0], "labels of shape"),
        ([[0.0], [1.0], [2.0]], [0, 1, 0, 1], "labels of shape"),
        ([["a"], ["b"], ["c"]], [0, 1, 0], "numeric"),
        ([[0.0, 1.0]], [1], "at least 2 training rows"),
    ])
    def test_bad_training_input_rejected(self, algorithm, features, labels, message):
        with pytest.raises(ModelError, match=message):
            models.ALGORITHMS[algorithm]().fit(features, labels)

    def test_bad_hyperparams(self):
        ds = generate_artificial(10, seed=0)
        with pytest.raises(ModelError, match="bad hyperparameters"):
            fit("rf", ds, {"n_legs": 4})

    @pytest.mark.parametrize("algorithm", models.ALGORITHMS)
    def test_all_algorithms_beat_majority_on_holdout(self, algorithm):
        X, y = separable_blobs(n_per_class=80, seed=4)
        ds = as_dataset(X, y)
        train, test = train_test_split(ds, SplitSpec(seed=0))
        model = fit(algorithm, train)
        accuracy = float(np.mean(model.predict_labels(test.features) == test.labels))
        majority = float(np.max(np.bincount(test.labels)) / test.n)
        assert accuracy > majority

    @pytest.mark.parametrize("algorithm", ["lr", "svm", "lda"])
    def test_linear_models_beat_majority_on_ad(self, algorithm):
        ds = generate_artificial(500, seed=6)
        train, test = train_test_split(ds, SplitSpec(seed=0))
        model = fit(algorithm, train)
        accuracy = float(np.mean(model.predict_labels(test.features) == test.labels))
        majority = float(np.max(np.bincount(test.labels)) / test.n)
        assert accuracy > majority


def seed_test_data():
    """Four-feature training rows with a non-linear rule, and queries."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(80, 4))
    y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] > X[:, 3] ** 2 - 1).astype(int)
    return X, y, rng.normal(size=(300, 4))


class TestPredictContract:
    def test_empty_batch(self):
        ds = generate_artificial(10, seed=0)
        for algorithm in models.ALGORITHMS:
            model = fit(algorithm, ds)
            out = model.predict_labels(np.empty((0, 2)))
            assert out.shape == (0,), algorithm
            assert out.dtype == np.int64, algorithm

    def test_repeat_calls_identical(self):
        ds = generate_artificial(40, seed=0)
        model = fit("rf", ds, seed=1)
        rows = np.random.default_rng(3).normal(size=(50, 2))
        assert np.array_equal(model.predict_labels(rows), model.predict_labels(rows))

    def test_batch_layout_does_not_change_labels(self):
        # lr's boundary passes within rounding of (3, 3), and BLAS rounds
        # the last rows of a Fortran-ordered batch differently.
        X = np.array([[3, 3]] * 4 + [[0, 3]] * 2 + [[0, 0]] * 4
                     + [[3, 3], [3, 0], [3, 0]] + [[0, 0]] * 4 + [[3, 3]], dtype=float)
        y = np.array([0, 1] + [0] * 8 + [1] * 8)
        queries = np.vstack([generate_artificial(20, 1).features, np.full((3, 2), 3.0)])
        for algorithm in models.ALGORITHMS:
            model = models.ALGORITHMS[algorithm]().fit(X, y)
            assert np.array_equal(
                model.predict_labels(np.asfortranarray(queries)),
                model.predict_labels(queries),
            ), algorithm

    @pytest.mark.parametrize("algorithm", ["lr", "svm", "lda", "dt", "knn"])
    def test_seed_drives_only_the_forest(self, algorithm):
        # Four features, so a tree that sampled sqrt(d) = 2 candidates per
        # node would depend on the seed.
        X, y, queries = seed_test_data()
        a = models.ALGORITHMS[algorithm]().fit(X, y, seed=0)
        b = models.ALGORITHMS[algorithm]().fit(X, y, seed=12345)
        assert np.array_equal(a.predict_labels(queries), b.predict_labels(queries))
        if hasattr(a, "_scores"):
            assert a._scores(queries).tobytes() == b._scores(queries).tobytes()
        elif hasattr(a, "weights"):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.intercept == b.intercept
        if algorithm == "dt":
            (ta,), (tb,) = a._trees, b._trees
            for name in ("feature", "threshold", "left", "right", "prob"):
                assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes()

    def test_forest_depends_on_the_seed(self):
        X, y, queries = seed_test_data()
        a = RandomForestModel().fit(X, y, seed=0)
        b = RandomForestModel().fit(X, y, seed=12345)
        assert not np.array_equal(a._scores(queries), b._scores(queries))

    def test_dimension_mismatch(self):
        ds = generate_artificial(10, seed=0)
        model = fit("lda", ds)
        with pytest.raises(ModelError, match="dimension mismatch"):
            model.predict_labels(np.zeros((3, 5)))

    def test_one_dimensional_batch(self):
        model = fit("lda", generate_artificial(10, seed=0))
        with pytest.raises(ModelError, match="expected a 2-d batch of rows"):
            model.predict_labels(np.zeros(2))

    @pytest.mark.parametrize("algorithm", models.ALGORITHMS)
    @pytest.mark.parametrize("d", [2, 0])
    def test_unfitted_model(self, algorithm, d):
        model = models.ALGORITHMS[algorithm]()
        with pytest.raises(ModelError, match=f"{algorithm} model is not fitted"):
            model.predict_labels(np.zeros((3, d)))


class TestTrainingLabels:
    """A model is fitted once; ``explain()`` labels the training rows once
    per model, dataset and standardizer, and then only the instance."""

    @pytest.mark.parametrize("algorithm", models.ALGORITHMS)
    def test_refit_is_refused(self, algorithm):
        ds = generate_artificial(30, seed=1)
        model = models.ALGORITHMS[algorithm]().fit(ds.features, ds.labels, seed=2)
        before = model.predict_labels(ds.features)
        with pytest.raises(ModelError, match=f"^{algorithm} model is already fitted$"):
            model.fit(ds.features, 1 - ds.labels, seed=2)
        assert np.array_equal(model.predict_labels(ds.features), before)

    @pytest.mark.parametrize("algorithm", models.ALGORITHMS)
    def test_mutating_the_training_arrays_after_fit(self, algorithm):
        ds = generate_artificial(40, seed=2)
        X, y = ds.features.copy(), ds.labels.astype(np.int64)
        probe = np.vstack([X, np.random.default_rng(0).normal(size=(50, 2))])
        train = X.copy()
        model = models.ALGORITHMS[algorithm]().fit(X, y, seed=1)
        before = model.predict_labels(probe), model.predict_labels(train)
        X *= -1.0
        y[:] = 1 - y
        assert np.array_equal(model.predict_labels(probe), before[0])
        assert np.array_equal(model.predict_labels(train), before[1])

    def test_explain_predicts_only_the_instance(self, monkeypatch):
        train = generate_artificial(5000, seed=0)
        fitted = models.fit_on_standardized("rf", train, seed=0)
        sizes = []
        predict = RandomForestModel._predict

        def recording(self, rows):
            sizes.append(rows.shape[0])
            return predict(self, rows)

        z = train.features[7] + 0.25
        core.explain(fitted.model, train, z, standardizer=fitted.standardizer)
        monkeypatch.setattr(RandomForestModel, "_predict", recording)
        core.explain(fitted.model, train, z - 0.5, standardizer=fitted.standardizer)
        assert sizes == [1]

    def test_explain_walks_the_instance(self, monkeypatch):
        # Over the grid cap, the instance is labelled without a pass of
        # the level-by-level traversal.
        train = generate_artificial(200, seed=0)
        gridded = models.fit_on_standardized("rf", train, seed=0)
        monkeypatch.setattr(tree, "GRID_MAX_CELLS", 0)
        fitted = models.fit_on_standardized("rf", train, seed=0)
        assert fitted.model._grid is None
        z = train.features[7] + 0.25
        # The first call labels the training rows level by level.
        core.explain(fitted.model, train, z, standardizer=fitted.standardizer)

        def refuse(self, rows):
            raise AssertionError("level-by-level traversal")

        monkeypatch.setattr(tree._Tree, "predict_prob", refuse)
        walked = core.explain(fitted.model, train, z, standardizer=fitted.standardizer)
        looked_up = core.explain(
            gridded.model, train, z, standardizer=gridded.standardizer
        )
        assert walked.predicted_class == looked_up.predicted_class
        assert np.array_equal(walked.importances, looked_up.importances)
        for side in ("allies", "enemies"):
            assert [e.index for e in getattr(walked, side)] == [
                e.index for e in getattr(looked_up, side)
            ]


def test_module_under_haswell_kernels():
    # The fused 1-NN Gram product rounds differently under each OpenBLAS
    # kernel; its rounding band must cover the Haswell kernel too.
    rerun_under_haswell(__file__)
