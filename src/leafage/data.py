"""Tabular dataset ingestion, standardization, splitting and synthesis.

Labels are stored as integer codes indexing into ``class_names``; the
binary convention after :func:`one_vs_rest` is code 1 = positive class,
code 0 = rest.  All feature handling is numeric-only: categorical columns
are rejected at ingestion.
"""
from __future__ import annotations

import csv
import math
import numbers
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, LeafageError

__all__ = [
    "Dataset",
    "Standardizer",
    "SplitSpec",
    "load_csv",
    "save_csv",
    "train_test_split",
    "standardized",
    "one_vs_rest",
    "generate_artificial",
]


def _duplicates(names: list[str]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted(name for name, count in Counter(names).items() if count > 1)


def _name_list(field: str, names) -> list[str]:
    """A list or tuple of strings as a new list; a bare string would read
    as one name per character."""
    if isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names):
        return list(names)
    raise DataError(f"{field} must be a list of strings, got {names!r}")


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with labels and column metadata.

    ``features`` is an (n, d) float array, ``labels`` an (n,) array of
    integer codes into ``class_names``; both names are lists of distinct
    strings.  Both arrays are the Dataset's own copies, marked read-only
    so a Dataset can be shared across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    column_names: list[str]
    class_names: list[str]
    name: str = ""

    def __post_init__(self) -> None:
        for attr in ("column_names", "class_names"):
            object.__setattr__(self, attr, _name_list(attr, getattr(self, attr)))
        # Own copies: a later write to the caller's arrays cannot reach a
        # validated Dataset.
        features = float_array(self.features, "features", DataError).copy()
        labels = np.array(self.labels)
        if features.ndim != 2:
            raise DataError("feature matrix must be two-dimensional")
        if labels.ndim != 1:
            raise DataError(f"labels must be one-dimensional, got shape {labels.shape}")
        if features.shape[0] != labels.shape[0]:
            raise DataError(
                f"row count mismatch: {features.shape[0]} feature rows vs "
                f"{labels.shape[0]} labels"
            )
        if features.shape[1] != len(self.column_names):
            raise DataError("column_names length must match feature columns")
        if features.shape[1] < 1:
            raise DataError("dataset needs at least one feature column")
        for attr in ("column_names", "class_names"):
            dupes = _duplicates(getattr(self, attr))
            if dupes:
                raise DataError(f"duplicate {attr.replace('_', ' ')} {dupes}")
        if not np.all(np.isfinite(features)):
            i, j = np.argwhere(~np.isfinite(features))[0]
            raise DataError(
                f"non-finite feature value at row {i + 1}, "
                f"column {self.column_names[j]!r}"
            )
        whole = labels.dtype.kind in "biu" or (
            labels.dtype.kind == "f"
            and np.all(np.isfinite(labels) & (labels == np.floor(labels)))
        )
        if not whole:
            raise DataError("label codes must be whole numbers")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise DataError("label codes out of range of class_names")
        labels = labels.astype(np.int64, copy=False)
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score transform fitted on training rows.

    Constant columns (zero standard deviation) get a scale of 1, so they
    standardize to 0 instead of dividing by zero.  A column whose mean or
    standard deviation overflows a double raises DataError.  ``means`` and
    ``scales`` are the Standardizer's own read-only copies, so explain()
    may reuse the rows it standardized while given the same Standardizer.
    """

    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        for attr in ("means", "scales"):
            values = float_array(getattr(self, attr), attr, DataError).copy()
            values.setflags(write=False)
            object.__setattr__(self, attr, values)

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        features = float_array(features, "features", DataError)
        if features.shape[0] == 0:
            raise DataError("cannot standardize zero rows")
        with np.errstate(over="ignore", invalid="ignore"):
            means = features.mean(axis=0)
            stds = features.std(axis=0)
        scales = np.where(stds == 0.0, 1.0, stds)
        wide = ~(np.isfinite(means) & np.isfinite(scales))
        if wide.any():
            raise DataError(
                f"cannot standardize column {np.flatnonzero(wide)[0]}: its mean "
                "or standard deviation is not a finite double"
            )
        return cls(means=means, scales=scales)

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Standardize a row or a batch whose last axis has the fitted width."""
        features = float_array(features, "features", DataError)
        width = features.shape[-1] if features.ndim else 0
        if width != self.means.size:
            raise DataError(
                f"batch has {width} columns, the standardizer was fitted on "
                f"{self.means.size}"
            )
        return (features - self.means) / self.scales


def float_array(values, what: str, error: type[LeafageError]) -> np.ndarray:
    """``values`` as a float64 array, not copied when it is one already.

    Only real numbers convert: an ndarray must hold integers or floats,
    and every element of other input must pass :func:`is_real`.  Anything
    else (a string, a bool, a complex number, a ragged nesting, an integer
    beyond a double's range) raises ``error``.
    """
    try:
        if isinstance(values, np.ndarray):
            if values.dtype.kind in "iuf":
                return np.asarray(values, dtype=np.float64)
        else:
            elements = np.asarray(values, dtype=object)
            # is_real of every element, decided once per distinct type.
            kinds = set(map(type, elements.flat))
            if all(issubclass(k, numbers.Real) and k is not bool for k in kinds):
                return elements.astype(np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be numeric: real numbers that fit in a double")


def is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number, numpy scalars included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(name: str, value) -> None:
    """Raise DataError unless ``value`` is an integer (:func:`is_integer`)."""
    if not is_integer(value):
        raise DataError(f"{name} must be an integer, got {value!r}")


def check_seed(value) -> None:
    """A seed is a non-negative integer, as the CLI's ``--seed`` is."""
    check_integer("seed", value)
    if value < 0:
        raise DataError(f"seed must be a non-negative integer, got {value!r}")


def check_fraction(name: str, value: float) -> None:
    """``value`` is a real number in the open interval (0, 1); NaN is not."""
    if not (is_real(value) and 0.0 < value < 1.0):
        raise DataError(f"{name} must lie strictly between 0 and 1")


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split parameters."""

    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        check_fraction("train_fraction", self.train_fraction)
        check_seed(self.seed)


def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"unparseable numeric cell at row {row}, column {column!r}: {text!r}"
        ) from None


def load_csv(path: str, label_column: str) -> Dataset:
    """Load a headered, numeric CSV into a Dataset named by its path.

    Every column except ``label_column`` must parse as a finite real
    number; label values are kept verbatim as class names (sorted for
    deterministic code assignment).  Every error names the file.
    """
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports begin with.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        return _dataset_from_records(records, label_column, path)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _dataset_from_records(
    records: list[list[str]], label_column: str, name: str
) -> Dataset:
    if not records:
        raise DataError("empty file")
    header = records[0]
    if _duplicates(header):
        raise DataError(f"duplicate column names {_duplicates(header)}")
    if label_column not in header:
        raise DataError(f"label column {label_column!r} not found")
    label_idx = header.index(label_column)
    feature_names = [c for c in header if c != label_column]

    rows: list[list[float]] = []
    raw_labels: list[str] = []
    # Blank lines are skipped and not counted, as Dataset numbers rows.
    for row_no, record in enumerate(filter(None, records[1:]), start=1):
        if len(record) != len(header):
            raise DataError(
                f"row {row_no} has {len(record)} cells, expected {len(header)}"
            )
        raw_labels.append(record[label_idx])
        rows.append(
            [
                _parse_cell(cell, row_no, header[j])
                for j, cell in enumerate(record)
                if j != label_idx
            ]
        )
    if len(rows) < 2:
        raise DataError(f"need at least 2 data rows, found {len(rows)}")
    class_names = sorted(set(raw_labels))
    if len(class_names) < 2:
        raise DataError("need at least 2 distinct labels")
    code = {c: i for i, c in enumerate(class_names)}
    labels = np.array([code[c] for c in raw_labels], dtype=np.int64)
    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=labels,
        column_names=feature_names,
        class_names=class_names,
        name=name,
    )


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset back to CSV: the features, then a ``label`` column."""
    if "label" in ds.column_names:
        raise DataError(
            f"cannot save to {path}: feature column 'label' would clash with "
            "the label column"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.column_names) + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [ds.class_names[label]])


def train_test_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint row partition; identical seed reproduces the partition.

    The rows are permuted once under ``spec.seed``, and the first
    ``train_fraction * n`` of them, rounded half up, go to training.  Both
    parts keep the dataset's row order.
    """
    if ds.n < 2:
        raise DataError("cannot split a dataset with fewer than 2 rows")
    perm = np.random.default_rng(spec.seed).permutation(ds.n)
    k = math.floor(spec.train_fraction * ds.n + 0.5)
    if not 0 < k < ds.n:
        raise DataError(
            f"split produced an empty partition (n={ds.n}, "
            f"train_fraction={spec.train_fraction})"
        )
    return tuple(
        replace(ds, features=ds.features[idx], labels=ds.labels[idx])
        for idx in (np.sort(perm[:k]), np.sort(perm[k:]))
    )


def standardized(ds: Dataset, standardizer: Standardizer) -> Dataset:
    """The same dataset with features pushed through a fitted Standardizer."""
    return replace(ds, features=standardizer.transform(ds.features))


def one_vs_rest(ds: Dataset, positive_class: str) -> Dataset:
    """Relabel to binary {rest: 0, positive: 1}; the features are copied
    unchanged.  The rest class is named ``rest``, or ``not rest`` when the
    positive class is itself named ``rest``."""
    positive = str(positive_class)
    if positive not in ds.class_names:
        raise DataError(
            f"unknown positive class {positive!r}; "
            f"dataset classes: {ds.class_names}"
        )
    positive_code = ds.class_names.index(positive)
    labels = (ds.labels == positive_code).astype(np.int64)
    rest = "not rest" if positive == "rest" else "rest"
    return replace(ds, labels=labels, class_names=[rest, positive])


AD_MEAN_A = np.array([0.0, 0.0])
AD_MEAN_B = np.array([0.0, 1.0])
AD_VARIANCE = 2.0


def generate_artificial(n_per_class: int, seed: int) -> Dataset:
    """Two heavily overlapping bivariate normal classes.

    Class A is centred at (0, 0) and class B at (0, 1), both with
    covariance diag(2, 2), so a Bayes-optimal rule still errs on roughly
    a third of instances.
    """
    check_integer("n_per_class", n_per_class)
    check_seed(seed)
    if n_per_class < 1:
        raise DataError("n_per_class must be at least 1")
    rng = np.random.default_rng(seed)
    scale = math.sqrt(AD_VARIANCE)
    a = AD_MEAN_A + scale * rng.standard_normal((n_per_class, 2))
    b = AD_MEAN_B + scale * rng.standard_normal((n_per_class, 2))
    features = np.vstack([a, b])
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)]
    )
    return Dataset(
        features=features,
        labels=labels,
        column_names=["x1", "x2"],
        class_names=["A", "B"],
        name="ad",
    )
