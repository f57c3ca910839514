"""1-nearest-neighbour classifier (Euclidean, lowest-index tie break).

A batch is screened block by block with the Gram form ||t||^2 - 2 x.t,
one matrix product per block: each query row, extended by a 1, times the
factor matrix [-2 t^T; ||t||^2].  Rows whose nearest training row is not
clear of the rounding band are re-decided by the exact difference form.
"""
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
        factor = np.empty((d + 1, n_train))
        np.multiply(train.T, -2.0, out=factor[:d])
        factor[d] = np.einsum("ij,ij->i", train, train)
        train_sq_max = factor[d].max()
        block_rows = max(1, BLOCK_ELEMENTS // n_train)
        exact_rows = max(1, BLOCK_ELEMENTS // (n_train * d))
        # The extended query rows and the Gram values of one block; a short
        # last block uses their leading rows.
        buffer_rows = min(block_rows, rows.shape[0])
        extended = np.ones((buffer_rows, d + 1))
        gram_buffer = np.empty((buffer_rows, n_train))
        out = np.empty(rows.shape[0], dtype=np.int64)
        for start in range(0, rows.shape[0], block_rows):
            block = rows[start : start + block_rows]
            m = block.shape[0]
            at = np.arange(m)
            extended[:m, :d] = block
            gram = gram_buffer[:m]
            # A non-finite or overflowing row has a non-finite band and
            # takes the exact path, so its Gram-form warnings are noise.
            with np.errstate(invalid="ignore", over="ignore"):
                np.matmul(extended[:m], factor, out=gram)
                nearest = np.argmin(gram, axis=1)
                band = gram[at, nearest]
                # The product is a dot product of length d + 1 whose terms
                # total at most 2 S in magnitude, S = ||x||^2 + max ||t||^2,
                # one of them the rounded ||t||^2: its rounding error is at
                # most 4 (d + 1) 2**-53 S, and the difference form's is
                # below 2 (d + 2) 2**-53 S.  The exact nearest row lies
                # within twice their sum of the Gram minimum, inside a band
                # of 1e-9 S for any d below 7 * 10**5; a row whose band
                # holds one training row cannot change label.
                band += 1e-9 * (np.einsum("ij,ij->i", block, block) + train_sq_max)
                # Another row lies in the band exactly when the nearest row
                # without the first one does.
                gram[at, nearest] = np.inf
                recheck = gram[at, np.argmin(gram, axis=1)] <= band
            recheck |= ~np.isfinite(band)
            redo = np.flatnonzero(recheck)
            for first in range(0, redo.size, exact_rows):
                idx = redo[first : first + exact_rows]
                diff = block[idx, None, :] - train[None, :, :]
                dist2 = np.einsum("ijk,ijk->ij", diff, diff)
                nearest[idx] = np.argmin(dist2, axis=1)
            out[start : start + m] = self._labels[nearest]
        return out
