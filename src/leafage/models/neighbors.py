"""1-nearest-neighbour classifier (Euclidean, lowest-index tie break)."""
from __future__ import annotations

import numpy as np

from .base import TrainedModel

# float64 elements per distance temporary (512 KB, inside a core's L2
# cache): a block takes BLOCK_ELEMENTS // n_train query rows, so memory
# stays flat as the training set grows.
BLOCK_ELEMENTS = 1 << 16


class KNearestModel(TrainedModel):
    """K=1 nearest neighbour over the stored training set.

    Distance ties resolve to the lowest training-row index, so training
    rows are always classified by their own (first) copy.
    """

    descriptor = "knn"

    _labels: np.ndarray | None = None

    def _train(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        # The training rows are the base class's read-only ``_fit_rows``.
        self._labels = y

    def _predict(self, rows: np.ndarray) -> np.ndarray:
        """Nearest training row per query by the Gram form ||t||^2 - 2 x.t.

        Rows with a second training row inside the rounding band of their
        minimum (ties, duplicates, self-matches), and rows whose band is
        not finite, are re-decided by the exact difference form
        sum((x - t)^2) over the whole training set, lowest index first.
        """
        train = self._fit_rows
        n_train, d = train.shape
        # Computed per call rather than kept from fit: O(n d), small next
        # to the O(m n d) Gram product.
        train_sq = np.einsum("ij,ij->i", train, train)
        minus_2t = -2.0 * train
        train_sq_max = train_sq.max()
        block_rows = max(1, BLOCK_ELEMENTS // n_train)
        exact_rows = max(1, BLOCK_ELEMENTS // (n_train * d))
        out = np.empty(rows.shape[0], dtype=np.int64)
        for start in range(0, rows.shape[0], block_rows):
            block = rows[start : start + block_rows]
            # A non-finite or overflowing row has a non-finite band and
            # takes the exact path, so its Gram-form warnings are noise.
            with np.errstate(invalid="ignore", over="ignore"):
                gram = block @ minus_2t.T
                gram += train_sq
                nearest = np.argmin(gram, axis=1)
                band = np.take_along_axis(gram, nearest[:, None], axis=1)[:, 0]
                # Each form's rounding error is below 2 (d + 2) 2**-53 times
                # S = ||x||^2 + max ||t||^2.  The exact nearest row lies
                # within four such errors of the Gram minimum, inside a band
                # of 1e-9 S for any d below ~10**6; a row whose band holds
                # one training row cannot change label.
                band += 1e-9 * (np.einsum("ij,ij->i", block, block) + train_sq_max)
                # Another row lies in the band exactly when the minimum
                # without the nearest one does.
                gram[np.arange(block.shape[0]), nearest] = np.inf
                recheck = gram.min(axis=1) <= band
            recheck |= ~np.isfinite(band)
            redo = np.flatnonzero(recheck)
            for first in range(0, redo.size, exact_rows):
                idx = redo[first : first + exact_rows]
                diff = block[idx, None, :] - train[None, :, :]
                dist2 = np.einsum("ijk,ijk->ij", diff, diff)
                nearest[idx] = np.argmin(dist2, axis=1)
            out[start : start + block.shape[0]] = self._labels[nearest]
        return out
