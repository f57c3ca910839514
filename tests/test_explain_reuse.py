"""explain() keeps the standardized training rows, the model's labels of
them and the surrogates it fitted on them while it is given the same
model, dataset and standardizer objects.

Reused explanations must equal cold ones bit for bit, and any new object
in the triple, equal in content or not, must be labelled and fitted afresh.
"""
import gc
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedLinearModel
from leafage import core, models
from leafage.data import (
    Dataset,
    SplitSpec,
    Standardizer,
    generate_artificial,
    train_test_split,
)
from leafage.errors import ModelError
from leafage.evaluation import run_setting
from leafage.models import ExternalModel

# Labels each row by the sign of its first feature, and appends the number
# of rows of each request to the log file named by its argument.
COUNTING_STUB = textwrap.dedent(
    """
    import json, sys
    log = open(sys.argv[1], "a")
    for line in sys.stdin:
        rows = json.loads(line)["instances"]
        log.write(f"{len(rows)}\\n")
        log.flush()
        labels = [1 if row[0] >= 0 else 0 for row in rows]
        print(json.dumps({"labels": labels}), flush=True)
    """
)


def same_explanation(a: core.Explanation, b: core.Explanation) -> bool:
    """Field by field, every number bit for bit."""

    def bits(x):
        return np.asarray(x).tobytes()

    def examples(e):
        return [
            (x.index, bits(x.features), bits(x.dissimilarity))
            for x in e.allies + e.enemies
        ]

    return (
        bits(a.test_instance) == bits(b.test_instance)
        and a.predicted_class == b.predicted_class
        and bits(a.importances) == bits(b.importances)
        and [len(a.allies), len(a.enemies)] == [len(b.allies), len(b.enemies)]
        and examples(a) == examples(b)
        and bits(a.surrogate.weights) == bits(b.surrogate.weights)
        and bits(a.surrogate.intercept) == bits(b.surrogate.intercept)
        and a.surrogate.x_border == b.surrogate.x_border
        and bits(a.surrogate.local_indices) == bits(b.surrogate.local_indices)
        and a.flags == b.flags
    )


def fitted_triple(kind: str, ds: Dataset):
    if kind == "fixed-linear":
        return FixedLinearModel([0.4, 1.0], -0.1), Standardizer.fit(ds.features)
    fitted = models.fit_on_standardized(kind, ds, seed=3)
    return fitted.model, fitted.standardizer


@pytest.mark.parametrize("kind", ["rf", "knn", "fixed-linear"])
def test_reused_explanations_equal_cold_ones(kind):
    ds = generate_artificial(100, seed=5)
    model, scaler = fitted_triple(kind, ds)
    other = generate_artificial(20, seed=6)
    other_model, other_scaler = FixedLinearModel([1.0, 0.0]), Standardizer.fit(
        other.features
    )
    queries = ds.features[::8] + 0.125
    assert len(queries) >= 20
    warm = [core.explain(model, ds, z, standardizer=scaler) for z in queries]
    for z, reused in zip(queries, warm):
        # Another triple in between forces a rebuild.
        core.explain(other_model, other, other.features[0], standardizer=other_scaler)
        cold = core.explain(model, ds, z, standardizer=scaler)
        assert same_explanation(reused, cold)


@pytest.fixture
def counting(tmp_path):
    """A factory of ExternalModel handles on the counting stub, each with
    the list of request sizes its child has logged; all closed at the end."""
    script = tmp_path / "counting.py"
    script.write_text(COUNTING_STUB)
    handles = []

    def spawn():
        log = tmp_path / f"sizes-{len(handles)}.txt"
        log.touch()
        model = ExternalModel([sys.executable, str(script), str(log)], n_features=2)
        handles.append(model)
        return model, lambda: [int(n) for n in log.read_text().split()]

    yield spawn
    for model in handles:
        model.close()


def test_external_model_is_sent_the_training_rows_once(counting):
    ds = generate_artificial(40, seed=0)
    scaler = Standardizer.fit(ds.features)
    model, sizes = counting()
    for z in ds.features[:3]:
        core.explain(model, ds, z, standardizer=scaler)
    assert sizes() == [ds.n, 1, 1, 1]
    # A new object in any of the three places is labelled afresh, even
    # when it equals the one it replaces.
    twin = Dataset(ds.features, ds.labels, ds.column_names, ds.class_names)
    core.explain(model, twin, ds.features[0], standardizer=scaler)
    assert sizes() == [ds.n, 1, 1, 1, ds.n, 1]
    twin_scaler = Standardizer.fit(ds.features)
    core.explain(model, twin, ds.features[0], standardizer=twin_scaler)
    assert sizes() == [ds.n, 1, 1, 1, ds.n, 1, ds.n, 1]
    other, other_sizes = counting()
    core.explain(other, twin, ds.features[0], standardizer=twin_scaler)
    assert other_sizes() == [ds.n, 1]
    assert len(sizes()) == 8


def test_explain_after_close_raises(counting):
    ds = generate_artificial(40, seed=0)
    scaler = Standardizer.fit(ds.features)
    model, _ = counting()
    core.explain(model, ds, ds.features[0], standardizer=scaler)
    model.close()
    with pytest.raises(ModelError, match="external model is closed"):
        core.explain(model, ds, ds.features[1], standardizer=scaler)


def test_a_replaced_model_gets_its_own_labels():
    ds = generate_artificial(60, seed=1)
    scaler = Standardizer.fit(ds.features)
    z = ds.features[4]
    weights = np.array([0.3, 1.0])
    model = FixedLinearModel(weights)
    first = core.explain(model, ds, z, standardizer=scaler)
    old_id = id(model)
    del model
    gc.collect()
    # CPython hands a freed object's memory to a new object of its size,
    # so one of these, all alive at once, usually takes the old id.
    candidates = [FixedLinearModel(-weights) for _ in range(100)]
    flipped = next((m for m in candidates if id(m) == old_id), candidates[0])
    second = core.explain(flipped, ds, z, standardizer=scaler)
    core._reference = None
    cold = core.explain(flipped, ds, z, standardizer=scaler)
    assert same_explanation(second, cold)
    assert second.predicted_class != first.predicted_class


def test_kept_rows_and_labels_are_read_only():
    ds = generate_artificial(30, seed=2)
    model, scaler = fitted_triple("rf", ds)
    core.explain(model, ds, ds.features[0], standardizer=scaler)
    ref = core._reference
    X_std, columns, predicted, class_rows = ref[3], ref[4], ref[5], ref[6]
    for array in (X_std, columns, predicted, *class_rows):
        assert not array.flags.writeable
    # So are the arrays of each surrogate kept beside them, whose
    # degenerate flag is the norm rule's.
    for weights, _, local_indices, degenerate in ref[7].values():
        assert not weights.flags.writeable and not local_indices.flags.writeable
        assert degenerate == (np.linalg.norm(weights) < core.DEGENERATE_WEIGHT_NORM)
    assert len(class_rows) == 2
    for c, rows in enumerate(class_rows):
        assert np.array_equal(rows, np.flatnonzero(predicted == c))
    # The feature-major copy explain() measures distances over.
    assert columns.flags.f_contiguous and np.array_equal(columns, X_std)
    # A Standardizer, like a Dataset, holds read-only copies of its arrays.
    means = np.zeros(2)
    built = Standardizer(means=means, scales=np.ones(2))
    means[0] = 1.0
    assert built.means.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        built.means[0] = 1.0


def test_kept_reference_is_dropped_with_its_objects():
    ds = generate_artificial(200, seed=1)
    fitted = models.fit_on_standardized("lr", ds, seed=0)
    core.explain(fitted.model, ds, ds.features[0], standardizer=fitted.standardizer)
    assert core._reference is not None
    del fitted, ds
    gc.collect()
    assert core._reference is None


def test_run_setting_keeps_nothing_of_its_model():
    train, test = train_test_split(generate_artificial(40, seed=3), SplitSpec(seed=3))
    model, scaler = fitted_triple("rf", train)
    z = test.features[0]
    core._reference = None
    cold = core.explain(model, train, z, standardizer=scaler)
    kept = core._reference
    # run_setting builds its reference on the same dataset object, with a
    # model and standardizer of its own, and keeps none of it.
    run_setting(train, test, "rf", ("leafage",))
    gc.collect()
    assert core._reference is kept
    assert same_explanation(core.explain(model, train, z, standardizer=scaler), cold)


def test_run_setting_between_explains_resends_no_training_rows(counting):
    train, test = train_test_split(generate_artificial(40, seed=3), SplitSpec(seed=3))
    scaler = Standardizer.fit(train.features)
    model, sizes = counting()
    core.explain(model, train, test.features[0], standardizer=scaler)
    run_setting(train, test, "lr", ("leafage",))
    core.explain(model, train, test.features[1], standardizer=scaler)
    assert sizes() == [train.n, 1, 1]


def counting_fits(monkeypatch):
    """The calls explain() makes to the local sampler and the surrogate fit,
    counted as they pass through core's module globals."""
    calls = {"sample_local_training_set": [], "fit_local_linear": []}
    for name, log in calls.items():
        def spy(*args, function=getattr(core, name), log=log):
            log.append(args)
            return function(*args)
        monkeypatch.setattr(core, name, spy)
    return lambda: [len(log) for log in calls.values()]


def test_one_fit_per_closest_enemy(monkeypatch):
    ds = generate_artificial(60, seed=4)
    model, scaler = fitted_triple("fixed-linear", ds)
    twin_model, _ = fitted_triple("fixed-linear", ds)
    twin = Dataset(ds.features, ds.labels, ds.column_names, ds.class_names)
    twin_scaler = Standardizer.fit(ds.features)
    z, small = ds.features[3] + 0.25, core.LeafageConfig(i_small=3)
    # (model, dataset, standardizer, instance, config, fits so far)
    calls = [
        (model, ds, scaler, z, None, 1),
        # Another instance with the same closest enemy fits nothing.
        (model, ds, scaler, z + 1e-9, None, 1),
        # Another i_small samples another local set, once.
        (model, ds, scaler, z, small, 2),
        (model, ds, scaler, z + 1e-9, small, 2),
        # A new object in any of the three places, equal or not, fits again.
        (twin_model, ds, scaler, z, None, 3),
        (twin_model, twin, scaler, z, None, 4),
        (twin_model, twin, twin_scaler, z, None, 5),
    ]
    fits = counting_fits(monkeypatch)
    core._reference = None
    warm = []
    for m, t, s, q, c, n_fits in calls:
        warm.append(core.explain(m, t, q, c, standardizer=s))
        assert fits() == [n_fits, n_fits]
    assert warm[0].surrogate.x_border == warm[1].surrogate.x_border
    for (m, t, s, q, c, _), reused in zip(calls, warm):
        core._reference = None
        assert same_explanation(reused, core.explain(m, t, q, c, standardizer=s))


def test_writing_into_an_explanation_leaves_the_kept_surrogate(monkeypatch):
    ds = generate_artificial(60, seed=4)
    model, scaler = fitted_triple("rf", ds)
    z = ds.features[7] + 0.25
    core._reference = None
    cold = core.explain(model, ds, z + 1e-9, standardizer=scaler)
    fits = counting_fits(monkeypatch)
    core._reference = None
    # The first call fits and keeps the surrogate; the later ones, for
    # another instance with the same closest enemy, reuse it.
    for _ in range(3):
        written = core.explain(model, ds, z, standardizer=scaler)
        written.surrogate.weights[:] = 99.0
        written.surrogate.local_indices[:] = 0
        reused = core.explain(model, ds, z + 1e-9, standardizer=scaler)
        assert same_explanation(reused, cold)
    assert fits() == [1, 1]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(12, 60),
    st.sampled_from([2, 3, 5]),
    st.sampled_from([2, 3, 10]),
    st.sampled_from(["dt", "knn", "fixed-linear"]),
)
@settings(max_examples=60, deadline=None)
def test_kept_surrogates_equal_refits(seed, n, d, i_small, kind):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    labels = X @ rng.normal(size=d) + rng.normal(scale=0.5, size=n) >= 0
    labels[:2] = [False, True]
    ds = Dataset(X, labels.astype(np.int64), [f"x{j}" for j in range(d)], ["a", "b"])
    if kind == "fixed-linear":
        model, scaler = FixedLinearModel(rng.normal(size=d)), Standardizer.fit(X)
    else:
        fitted = models.fit_on_standardized(kind, ds, seed=0)
        model, scaler = fitted.model, fitted.standardizer
    if np.unique(model.predict_labels(scaler.transform(X))).size < 2:
        return  # no enemies: explain() refuses every instance
    # Queries near a few training rows, so that many share a closest enemy.
    queries = X[rng.integers(0, n, size=12)] + rng.normal(scale=0.05, size=(12, d))
    cfg = core.LeafageConfig(i_small=i_small)
    core._reference = None
    warm = [core.explain(model, ds, z, cfg, standardizer=scaler) for z in queries]
    for z, reused in zip(queries, warm):
        core._reference = None
        cold = core.explain(model, ds, z, cfg, standardizer=scaler)
        assert same_explanation(reused, cold)


def test_concurrent_explanations_equal_serial_cold_ones():
    ds = generate_artificial(200, seed=8)
    model, scaler = fitted_triple("knn", ds)
    # 16 rows, each with four nearby queries that share its closest enemy.
    rows = ds.features[::25]
    queries = (rows[:, None, :] + 1e-7 * np.arange(4)[:, None]).reshape(-1, ds.d)
    assert len(queries) == 64

    def explain(z):
        return core.explain(model, ds, z, standardizer=scaler)

    cold = []
    for z in queries:
        core._reference = None
        cold.append(explain(z))
    assert len({e.surrogate.x_border for e in cold}) < len(queries)
    for _ in range(3):
        core._reference = None
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(explain, queries))
        assert all(map(same_explanation, parallel, cold))
