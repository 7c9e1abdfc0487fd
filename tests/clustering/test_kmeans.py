"""Tests for the k-means implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.kmeans import _assign, kmeans, kmeans_plus_plus_centroids


def two_blobs(rng, n=30, separation=10.0):
    a = rng.normal(0.0, 0.5, size=(n, 2))
    b = rng.normal(separation, 0.5, size=(n, 2))
    return np.vstack([a, b])


class TestKmeansPlusPlus:
    def test_shape(self, rng):
        points = rng.random((20, 3))
        centroids = kmeans_plus_plus_centroids(points, 4, rng=rng)
        assert centroids.shape == (4, 3)

    def test_centroids_are_points(self, rng):
        points = rng.random((15, 2))
        centroids = kmeans_plus_plus_centroids(points, 3, rng=rng)
        for c in centroids:
            assert any(np.allclose(c, p) for p in points)

    def test_identical_points_ok(self, rng):
        points = np.ones((10, 2))
        centroids = kmeans_plus_plus_centroids(points, 3, rng=rng)
        assert centroids.shape == (3, 2)

    def test_rejects_k_too_large(self, rng):
        with pytest.raises(ValueError):
            kmeans_plus_plus_centroids(rng.random((3, 2)), 5, rng=rng)

    def test_rejects_k_zero(self, rng):
        with pytest.raises(ValueError):
            kmeans_plus_plus_centroids(rng.random((3, 2)), 0, rng=rng)


class TestKmeans:
    def test_separates_blobs(self, rng):
        points = two_blobs(rng)
        result = kmeans(points, 2, rng=rng)
        labels = result.labels
        # first 30 points all one label, last 30 all the other
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[-1]

    def test_result_fields(self, rng):
        points = two_blobs(rng)
        result = kmeans(points, 2, rng=rng)
        assert result.k == 2
        assert result.centroids.shape == (2, 2)
        assert result.inertia >= 0.0
        assert result.n_iterations >= 1

    def test_explicit_initial_centroids(self, rng):
        points = two_blobs(rng)
        init = np.array([[0.0, 0.0], [10.0, 10.0]])
        result = kmeans(points, 2, initial_centroids=init, rng=rng)
        assert np.all(result.labels[:30] == 0)
        assert np.all(result.labels[30:] == 1)

    def test_wrong_initial_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            kmeans(rng.random((10, 2)), 2, initial_centroids=np.zeros((3, 2)), rng=rng)

    def test_k_equals_n(self, rng):
        points = rng.random((5, 2))
        result = kmeans(points, 5, rng=rng)
        assert sorted(np.bincount(result.labels, minlength=5)) == [1, 1, 1, 1, 1]

    def test_k_one(self, rng):
        points = rng.random((10, 2))
        result = kmeans(points, 1, rng=rng)
        assert np.all(result.labels == 0)
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0))

    def test_rejects_bad_k(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.random((5, 2)), 0)
        with pytest.raises(ValueError):
            kmeans(rng.random((5, 2)), 6)

    def test_rejects_1d_points(self):
        with pytest.raises(ValueError):
            kmeans(np.ones(5), 2)

    def test_no_repair_leaves_empty_clusters(self, rng):
        # two tight blobs, k=5 without repair: some clusters may stay empty
        points = two_blobs(rng)
        result = kmeans(points, 5, rng=rng, repair_empty=False)
        counts = np.bincount(result.labels, minlength=5)
        assert counts.sum() == points.shape[0]

    def test_repair_fills_clusters_on_spread_data(self, rng):
        points = rng.random((50, 2)) * 100
        result = kmeans(points, 5, rng=rng, repair_empty=True)
        counts = np.bincount(result.labels, minlength=5)
        assert np.all(counts > 0)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(5, 40),
    k=st.integers(1, 5),
    d=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_property_labels_valid_and_inertia_finite(n, k, d, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    points = rng.random((n, d))
    result = kmeans(points, k, rng=rng)
    assert result.labels.shape == (n,)
    assert result.labels.min() >= 0
    assert result.labels.max() < k
    assert np.isfinite(result.inertia)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_inertia_not_worse_than_random_assignment(seed):
    rng = np.random.default_rng(seed)
    points = rng.random((30, 2))
    result = kmeans(points, 3, rng=rng)
    random_labels = rng.integers(0, 3, size=30)
    random_inertia = 0.0
    for j in range(3):
        members = points[random_labels == j]
        if members.size:
            random_inertia += float(np.sum((members - members.mean(axis=0)) ** 2))
    assert result.inertia <= random_inertia + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 60),
    k=st.integers(1, 12),
    d=st.integers(1, 12),
    ties=st.booleans(),
)
def test_assign_matches_out_of_place_body(seed, n, k, d, ties):
    """The in-place assignment equals the out-of-place expression it replaced."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    centroids = rng.standard_normal((k, d))
    if ties:  # coincident centroids and points on centroids
        centroids[-1] = centroids[0]
        points[: min(n, k)] = centroids[: min(n, k)]
    # A column slice, as GCP passes its embedding prefix.
    points = np.hstack([points, rng.standard_normal((n, 2))])[:, :d]
    cross = points @ centroids.T
    c_norm = np.sum(centroids**2, axis=1)
    want = np.argmin(c_norm[None, :] - 2.0 * cross, axis=1)
    np.testing.assert_array_equal(_assign(points, centroids), want)
