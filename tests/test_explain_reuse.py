"""explain() keeps the standardized training rows and the model's labels of
them while it is given the same model, dataset and standardizer objects.

Reused explanations must equal cold ones bit for bit, and any new object
in the triple, equal in content or not, must be labelled afresh.
"""
import gc
import sys
import textwrap

import numpy as np
import pytest

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
    X_std, columns, predicted, class_rows = core._reference[3:]
    for array in (X_std, columns, predicted, *class_rows):
        assert not array.flags.writeable
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
