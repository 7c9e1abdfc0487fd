"""Lloyd's k-means with k-means++ seeding and explicit centroid control.

Algorithm 2 of the paper (GCP) drives k-means from the *outside*: it hands
the routine a centroid set, reads back updated centroids, splits oversized
clusters into two by a nested 2-means call, and appends the new centroids.
A library implementation that hides its centroids cannot express this, so we
implement k-means ourselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


@dataclass
class KMeansResult:
    """Result of one k-means run."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centroids.shape[0]


def kmeans_plus_plus_centroids(
    points: np.ndarray, k: int, rng: RngLike = None
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D² sampling."""
    points = np.asarray(points, dtype=float)
    rng = ensure_rng(rng)
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k ({k}) cannot exceed the number of points ({n})")
    centroids = np.empty((k, points.shape[1]), dtype=float)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for idx in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with a centroid; pick uniformly.
            choice = int(rng.integers(0, n))
        else:
            probabilities = closest_sq / total
            choice = int(rng.choice(n, p=probabilities))
        centroids[idx] = points[choice]
        distance_sq = np.sum((points - centroids[idx]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Label each point with its nearest centroid (squared Euclidean)."""
    # ||p - c||² = ||p||² - 2 p·c + ||c||²; the ||p||² term is constant per point.
    # In place: (-2 p·c) + ||c||² rounds exactly as ||c||² - 2 p·c, and one
    # n × k array instead of three keeps GCP's thousands of calls from
    # trimming and regrowing the heap on every call.
    cross = points @ centroids.T
    cross *= -2.0
    cross += np.sum(centroids**2, axis=1)
    return np.argmin(cross, axis=1)


def _update_centroids(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    rng: np.random.Generator,
    repair_empty: bool,
    previous_centroids: np.ndarray,
) -> np.ndarray:
    """Recompute centroids; optionally reseed empty clusters on far points.

    With ``repair_empty=False`` an empty cluster keeps its previous
    centroid (it simply attracts no points) — much more stable when ``k``
    intentionally exceeds the number of natural clusters, as in GCP.
    """
    centroids = previous_centroids.copy()
    counts = np.bincount(labels, minlength=k)
    # One weighted bincount over the flattened (label, dim) index.  It adds
    # the points in order, which fixes how every sum rounds.
    d = points.shape[1]
    flat = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=points.ravel(), minlength=k * d).reshape(k, d)
    nonempty = counts > 0
    centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    if repair_empty and not np.all(nonempty):
        # Repair empty clusters: move them onto the points currently worst
        # served (largest distance to their assigned centroid).
        distances = np.sum((points - centroids[labels]) ** 2, axis=1)
        order = np.argsort(distances)[::-1]
        cursor = 0
        for j in np.nonzero(~nonempty)[0]:
            centroids[j] = points[order[cursor % points.shape[0]]]
            cursor += 1
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    initial_centroids: Optional[np.ndarray] = None,
    max_iterations: int = 100,
    rng: RngLike = None,
    repair_empty: bool = True,
) -> KMeansResult:
    """Run Lloyd's algorithm on ``points`` (shape ``(n, d)``).

    Iteration stops when an update leaves every label unchanged, or after
    ``max_iterations`` updates.

    Parameters
    ----------
    initial_centroids:
        Optional ``(k, d)`` starting centroids; defaults to k-means++
        seeding.  GCP passes centroids explicitly to continue a previous
        clustering after a split.
    repair_empty:
        Reseed empty clusters on the worst-served points (default).  GCP
        and traversing disable this: they deliberately run with more
        centroids than natural clusters, and constant repair prevents
        Lloyd's from ever converging.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D (n, d), got shape {points.shape}")
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = ensure_rng(rng)
    if initial_centroids is None:
        centroids = kmeans_plus_plus_centroids(points, k, rng=rng)
    else:
        centroids = np.asarray(initial_centroids, dtype=float).copy()
        if centroids.shape != (k, points.shape[1]):
            raise ValueError(
                f"initial_centroids must have shape ({k}, {points.shape[1]}), "
                f"got {centroids.shape}"
            )
    labels = _assign(points, centroids)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        centroids = _update_centroids(points, labels, k, rng, repair_empty, centroids)
        new_labels = _assign(points, centroids)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        if converged:
            break
    inertia = float(np.sum((points - centroids[labels]) ** 2))
    return KMeansResult(
        labels=labels.astype(int),
        centroids=centroids,
        inertia=inertia,
        n_iterations=iteration,
    )
