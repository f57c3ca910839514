import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import leafage
from leafage.core import _euclidean, dissimilarities
from leafage.data import Dataset
from leafage.models.base import BlackBoxModel


def child_env(haswell: bool = False) -> dict[str, str]:
    """The environment of a child Python process, with this checkout's
    ``src`` first on PYTHONPATH.  With ``haswell`` the child's OpenBLAS
    loads its Haswell kernels; the test is skipped when this CPU cannot
    run them or this run already does."""
    env = dict(os.environ)
    if haswell:
        if env.get("OPENBLAS_CORETYPE") == "Haswell":
            pytest.skip("this run already uses the Haswell kernels")
        if not __cpu_features__.get("AVX2"):
            pytest.skip("this CPU cannot run OpenBLAS's Haswell kernels")
        env["OPENBLAS_CORETYPE"] = "Haswell"
    src = str(Path(leafage.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def rerun_under_haswell(test_file: str) -> None:
    """Runs the test module ``test_file`` again under OpenBLAS's Haswell
    kernels.  OpenBLAS picks its gemm and gemv kernels at load, by the
    CPU, so a product can match the expected bits on this CPU's kernels
    and not on the Haswell ones an AVX2-only host loads."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test_file],
        cwd=Path(test_file).parents[1], env=child_env(haswell=True),
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


def separable_blobs(n_per_class=60, seed=0, gap=4.0):
    """Two uniform discs of radius 0.9 centred ``gap`` apart: margin > 2."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, 2 * n_per_class)
    radii = 0.9 * np.sqrt(rng.uniform(0, 1, 2 * n_per_class))
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    points[:n_per_class, 0] -= gap / 2
    points[n_per_class:, 0] += gap / 2
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)]
    )
    return points, labels


def dissim(s, z, rows):
    """``dissimilarities`` with the distances ``explain`` passes it."""
    rows = np.atleast_2d(rows)
    return dissimilarities(s, z, rows, _euclidean(rows, z))


def class_rows(predicted):
    """Each class's row indices, as ``explain`` keeps them."""
    predicted = np.asarray(predicted)
    return np.flatnonzero(predicted == 0), np.flatnonzero(predicted == 1)


def blob_dataset(n_per_class=60, seed=0, gap=4.0):
    X, y = separable_blobs(n_per_class, seed, gap)
    return Dataset(X, y, ["f0", "f1"], ["neg", "pos"], name="blobs")


class FixedLinearModel(BlackBoxModel):
    """Test stub: a frozen linear rule label = [w @ x + b >= 0]."""

    descriptor = "fixed-linear"

    def __init__(self, weights, intercept=0.0):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = float(intercept)

    def predict_labels(self, rows):
        scores = np.asarray(rows, dtype=np.float64) @ self.weights + self.intercept
        return (scores >= 0.0).astype(np.int64)


class ConstantModel(BlackBoxModel):
    """Test stub: predicts one class everywhere."""

    descriptor = "constant"

    def __init__(self, label=1):
        self.label = int(label)

    def predict_labels(self, rows):
        return np.full(np.asarray(rows).shape[0], self.label, dtype=np.int64)
