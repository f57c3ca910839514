"""The surrogate kernel and the explain geometry against frozen references.

``weighted_logistic_fit`` writes its intermediates into reused buffers and
``explain`` measures the instance's distances to the training rows once;
both must give the bits of the plain formulas kept here: the Newton
kernel as whole-array expressions, and each geometry step with its own
distance pass over the rows it reads.
"""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import __cpu_features__
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
from leafage.data import generate_artificial
from leafage.errors import ExplanationError


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
        weights = lime.kernel_weights(z, samples, lime.kernel_width(d))
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


def reference_euclidean(rows, point):
    diff = rows - point
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


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
        x_border = closest_enemy(distances, predicted, c_z)
        assert x_border == reference_closest_enemy(X, predicted, z, c_z)
        assert np.array_equal(
            sample_local_training_set(X, predicted, x_border, cfg),
            reference_local_set(X, predicted, x_border, cfg.i_small * d),
        )
        assert retrieve_examples(
            X, distances, predicted, s, z, c_z, cfg.k_examples
        ) == reference_retrieve(X, predicted, s, z, c_z, cfg.k_examples)

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
        allies, _ = retrieve_examples(X, distances, predicted, s, z, 1, 3)
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


def test_module_under_haswell_kernels():
    # OpenBLAS picks its gemm and gemv kernels at load, by the CPU.  A
    # buffer layout can match the plain formulas' bits on this CPU's
    # kernels and not on the Haswell ones an AVX2-only host loads, so the
    # module runs again with those.
    if os.environ.get("OPENBLAS_CORETYPE") == "Haswell":
        pytest.skip("this run already uses the Haswell kernels")
    if not __cpu_features__.get("AVX2"):
        pytest.skip("this CPU cannot run OpenBLAS's Haswell kernels")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    src = str(Path(leafage.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
