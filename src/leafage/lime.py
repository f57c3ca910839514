"""LIME-style baselines: kernel-weighted logistic fits on synthetic points
labelled by the black box.

Two variants serve as comparison strategies in the fidelity experiments:

- ``lime`` (:func:`lime_fit`): points sampled across the whole
  (standardized) input space, no feature discretization; the surrogate
  is the same weighted logistic fit the local method uses, so the two
  strategies differ only in where their training points come from.
- ``lime-quartile`` (:func:`lime_quartile_fit`): the tabular default of
  the ``lime`` package, quartile discretization.  Samples are drawn bin
  by bin from the training distribution and the surrogate sees binary
  "same quartile bin as the instance" features.  Fit and kernel are the
  continuous variant's, so the two LIME strategies differ only in
  representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LocalSurrogate, check_instance, weighted_logistic_fit
from .data import check_integer, check_seed
from .errors import DataError, ExplanationError

__all__ = [
    "LimeConfig",
    "lime_sample",
    "kernel_weights",
    "lime_fit",
    "QuartileBins",
    "QuartileSurrogate",
    "lime_quartile_fit",
]

# Redraw rounds for the truncated normal.  A bin's mean lies inside it and
# its std is at most half its width, so each draw lands inside with
# probability above 0.47; what is left after the last round is clipped.
TRUNCATED_NORMAL_ROUNDS = 64


@dataclass(frozen=True)
class LimeConfig:
    """Sampling size and seed."""

    n_samples: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("n_samples", self.n_samples)
        check_seed(self.seed)

    def check_n_samples(self, d: int) -> None:
        if self.n_samples < 10 * d:
            raise DataError(
                f"n_samples={self.n_samples} is below the minimum 10*d={10 * d}"
            )


def lime_sample(d: int, cfg: LimeConfig) -> np.ndarray:
    """Synthetic points drawn i.i.d. per feature from the standard normal.

    The training space is standardized, so unit normals cover the input
    distribution; samples are not centred on the instance.
    """
    cfg.check_n_samples(d)
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal((cfg.n_samples, d))


def kernel_weights(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exponential proximity kernel exp(-||x - z||^2 / sigma^2) per row, with
    the conventional width sigma = 0.75 * sqrt(d) for rows of ``d`` features."""
    sigma = 0.75 * math.sqrt(rows.shape[1])
    diff = rows - z
    return np.exp(-np.einsum("ij,ij->i", diff, diff) / sigma**2)


def lime_fit(
    model, z: np.ndarray, cfg: LimeConfig, start: np.ndarray | None = None
) -> LocalSurrogate:
    """Kernel-weighted logistic surrogate on black-box-labelled samples.

    ``z`` is in standardized space.  Degenerate when the black box labels
    every sample identically.  ``start`` is the Newton start of
    :func:`~leafage.core.weighted_logistic_fit`.
    """
    z = check_instance(z, np.size(z))
    samples = lime_sample(z.size, cfg)
    weights, intercept = _kernel_fit(model, samples, samples, z, start)
    return LocalSurrogate(weights=weights, intercept=intercept)


def _kernel_fit(
    model,
    samples: np.ndarray,
    points: np.ndarray,
    z_point: np.ndarray,
    start: np.ndarray | None,
) -> tuple[np.ndarray, float]:
    """Fit on ``points``, the samples in the surrogate's representation,
    against the black box's labels of ``samples``, kernel-weighted around
    ``z_point``, the instance in that representation, from ``start``."""
    return weighted_logistic_fit(
        points,
        model.predict_labels(samples),
        sample_weight=kernel_weights(z_point, points),
        start=start,
    )


@dataclass(frozen=True)
class QuartileBins:
    """Per-feature quartile bins of the (standardized) training rows.

    Feature ``j`` has the bounds ``[min, *edges, max]`` of its training
    values, where ``edges`` are the ascending distinct quartiles (tied
    quartiles merge, so there are one to three).  Bin ``k`` spans
    ``bounds[j][k]`` to ``bounds[j][k + 1]``; a value on an edge falls in
    the lower bin.  Per bin the arrays hold the training row count, mean and std.
    """

    counts: tuple[np.ndarray, ...]
    means: tuple[np.ndarray, ...]
    stds: tuple[np.ndarray, ...]
    bounds: tuple[np.ndarray, ...]

    @classmethod
    def fit(cls, features: np.ndarray) -> "QuartileBins":
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ExplanationError("quartile bins need a non-empty 2-D training array")
        per_column = [_column_bins(column) for column in X.T]
        return cls(*(tuple(arrays) for arrays in zip(*per_column)))

    @property
    def d(self) -> int:
        return len(self.bounds)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Bin index of every value, shape ``(n, d)``."""
        rows = np.asarray(rows, dtype=np.float64)
        return np.column_stack(
            [np.searchsorted(b[1:-1], rows[:, j]) for j, b in enumerate(self.bounds)]
        )

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``n`` synthetic rows: bin indices and values, each ``(n, d)``.

        Per feature, a bin is drawn with its training frequency, then a
        value from the bin's training mean and std truncated to the bin.
        """
        codes = np.empty((n, self.d), dtype=np.int64)
        values = np.empty((n, self.d))
        for j in range(self.d):
            counts = self.counts[j]
            picks = rng.integers(0, counts.sum(), size=n)
            code = np.searchsorted(np.cumsum(counts), picks, side="right")
            low, high = self.bounds[j][code], self.bounds[j][code + 1]
            # Bins other than the first are open below: an edge value
            # belongs to the bin beneath it.
            low = np.where(code > 0, np.nextafter(low, np.inf), low)
            codes[:, j] = code
            values[:, j] = _truncated_normal(
                rng, self.means[j][code], self.stds[j][code], low, high
            )
        return codes, values


def _column_bins(column: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per bin count, mean and std, then the bins' bounds."""
    edges = np.unique(np.percentile(column, [25, 50, 75]))
    codes = np.searchsorted(edges, column)
    counts = np.bincount(codes, minlength=edges.size + 1)
    filled = np.maximum(counts, 1)
    means = np.bincount(codes, weights=column, minlength=edges.size + 1) / filled
    squares = np.bincount(
        codes, weights=(column - means[codes]) ** 2, minlength=edges.size + 1
    )
    return (
        counts,
        means,
        np.sqrt(squares / filled),
        np.concatenate(([column.min()], edges, [column.max()])),
    )


def _truncated_normal(
    rng: np.random.Generator,
    mean: np.ndarray,
    std: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
) -> np.ndarray:
    """Normal draws restricted to ``[low, high]`` by bounded redrawing."""
    values = rng.normal(mean, std)
    for _ in range(TRUNCATED_NORMAL_ROUNDS):
        outside = (values < low) | (values > high)
        if not outside.any():
            break
        values[outside] = rng.normal(mean[outside], std[outside])
    return np.clip(values, low, high)


@dataclass(kw_only=True)
class QuartileSurrogate(LocalSurrogate):
    """Surrogate over binary features: is a value in the same quartile bin
    as the instance?  ``weights`` act on that representation, and
    :meth:`score` encodes standardized rows into it."""

    bins: QuartileBins
    z_codes: np.ndarray

    def score(self, rows: np.ndarray) -> np.ndarray:
        same = self.bins.encode(rows) == self.z_codes
        return same.astype(np.float64) @ self.weights + self.intercept


def lime_quartile_fit(
    model,
    bins: QuartileBins,
    z: np.ndarray,
    cfg: LimeConfig,
    start: np.ndarray | None = None,
) -> QuartileSurrogate:
    """Quartile-discretized LIME surrogate around standardized ``z``.

    Samples come from ``bins``; the kernel measures distance in the binary
    representation, where ``z`` is all ones.  Degenerate when the black
    box labels every sample identically.  ``start`` is the Newton start of
    :func:`~leafage.core.weighted_logistic_fit`.
    """
    z = check_instance(z, bins.d)
    cfg.check_n_samples(bins.d)
    codes, samples = bins.sample(cfg.n_samples, np.random.default_rng(cfg.seed))
    z_codes = bins.encode(z[None, :])[0]
    binary = (codes == z_codes).astype(np.float64)
    weights, intercept = _kernel_fit(model, samples, binary, np.ones(bins.d), start)
    return QuartileSurrogate(
        weights=weights, intercept=intercept, bins=bins, z_codes=z_codes
    )
