"""Tabular dataset ingestion, standardization, splitting and synthesis.

Labels are stored as integer codes indexing into ``class_names``; the
binary convention after :func:`one_vs_rest` is code 1 = positive class,
code 0 = rest.  All feature handling is numeric-only: categorical columns
are rejected at ingestion.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

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


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with labels and column metadata.

    ``features`` is an (n, d) float array, ``labels`` an (n,) array of
    integer codes into ``class_names``.  Arrays are marked read-only so a
    Dataset can be shared freely across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    column_names: list[str]
    class_names: list[str]
    name: str = ""

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise DataError("feature matrix must be two-dimensional")
        if features.shape[0] != labels.shape[0]:
            raise DataError(
                f"row count mismatch: {features.shape[0]} feature rows vs "
                f"{labels.shape[0]} labels"
            )
        if features.shape[1] != len(self.column_names):
            raise DataError("column_names length must match feature columns")
        if features.shape[1] < 1:
            raise DataError("dataset needs at least one feature column")
        if not np.all(np.isfinite(features)):
            i, j = np.argwhere(~np.isfinite(features))[0]
            raise DataError(
                f"non-finite feature value at row {i + 1}, "
                f"column {self.column_names[j]!r}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise DataError("label codes out of range of class_names")
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

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(self.class_names))


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score transform fitted on training rows.

    Constant columns (zero standard deviation) get a scale of 1, so they
    standardize to 0 instead of dividing by zero.  A column whose mean or
    standard deviation overflows a double raises DataError.
    """

    means: np.ndarray
    scales: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        features = np.asarray(features, dtype=np.float64)
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
        means.setflags(write=False)
        scales.setflags(write=False)
        return cls(means=means, scales=scales)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.means) / self.scales


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split parameters."""

    train_fraction: float = 0.7
    seed: int = 0
    stratified: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie strictly between 0 and 1")


def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"unparseable numeric cell at row {row}, column {column!r}: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"non-finite value at row {row}, column {column!r}: {text!r}"
        )
    return value


def load_csv(path: str, label_column: str) -> Dataset:
    """Load a headered, numeric CSV into a Dataset named by its path.

    Every column except ``label_column`` must parse as a finite real
    number; label values are kept verbatim as class names (sorted for
    deterministic code assignment).
    """
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports begin with.
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            dupes = sorted({c for c in header if header.count(c) > 1})
            raise DataError(f"{path}: duplicate column names {dupes}")
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found")
        label_idx = header.index(label_column)
        feature_names = [c for c in header if c != label_column]

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for row_no, record in enumerate(reader, start=1):
            if not record:
                continue
            if len(record) != len(header):
                raise DataError(
                    f"{path}: row {row_no} has {len(record)} cells, "
                    f"expected {len(header)}"
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
        raise DataError(f"{path}: need at least 2 data rows, found {len(rows)}")
    class_names = sorted(set(raw_labels))
    if len(class_names) < 2:
        raise DataError(f"{path}: need at least 2 distinct labels")
    code = {c: i for i, c in enumerate(class_names)}
    labels = np.array([code[c] for c in raw_labels], dtype=np.int64)
    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=labels,
        column_names=feature_names,
        class_names=class_names,
        name=path,
    )


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset back to CSV: the features, then a ``label`` column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.column_names) + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [ds.class_names[label]])


def train_test_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint row partition; identical seed reproduces the partition."""
    if ds.n < 2:
        raise DataError("cannot split a dataset with fewer than 2 rows")
    rng = np.random.default_rng(spec.seed)
    # Each group (one per class when stratified, else all rows) is permuted
    # and its first fraction * size rows, rounded half up, go to training.
    if spec.stratified:
        groups = [np.flatnonzero(ds.labels == c) for c in range(len(ds.class_names))]
    else:
        groups = [np.arange(ds.n)]
    train_parts, test_parts = [], []
    for members in groups:
        perm = members[rng.permutation(members.size)]
        k = math.floor(spec.train_fraction * members.size + 0.5)
        train_parts.append(perm[:k])
        test_parts.append(perm[k:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    if train_idx.size == 0 or test_idx.size == 0:
        raise DataError(
            f"split produced an empty partition (n={ds.n}, "
            f"train_fraction={spec.train_fraction})"
        )
    return tuple(
        replace(ds, features=ds.features[idx], labels=ds.labels[idx])
        for idx in (train_idx, test_idx)
    )


def standardized(ds: Dataset, standardizer: Standardizer) -> Dataset:
    """The same dataset with features pushed through a fitted Standardizer."""
    return replace(ds, features=standardizer.transform(ds.features))


def one_vs_rest(ds: Dataset, positive_class: str) -> Dataset:
    """Relabel to binary {rest: 0, positive: 1}; features are shared."""
    positive = str(positive_class)
    if positive not in ds.class_names:
        raise DataError(
            f"unknown positive class {positive!r}; "
            f"dataset classes: {ds.class_names}"
        )
    positive_code = ds.class_names.index(positive)
    labels = (ds.labels == positive_code).astype(np.int64)
    return replace(ds, labels=labels, class_names=["rest", positive])


AD_MEAN_A = np.array([0.0, 0.0])
AD_MEAN_B = np.array([0.0, 1.0])
AD_VARIANCE = 2.0


def generate_artificial(n_per_class: int, seed: int) -> Dataset:
    """Two heavily overlapping bivariate normal classes.

    Class A is centred at (0, 0) and class B at (0, 1), both with
    covariance diag(2, 2), so a Bayes-optimal rule still errs on roughly
    a third of instances.
    """
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
