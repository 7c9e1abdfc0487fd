"""Greedy cluster size prediction, GCP (paper Algorithm 2).

Classic spectral clustering has no notion of a maximum cluster size, but a
cluster mapped to a memristor crossbar must fit the largest crossbar in the
library (64×64 under current technology, Sec. 2.1 [6]).  GCP enforces the
limit greedily: starting from ``k = n / s`` clusters, any cluster that
exceeds the limit is split in two by a nested 2-means, its centroid is
replaced by the two sub-centroids, and ``k`` grows by one.  The outer loop
re-extracts the embedding with the enlarged ``k`` (the first ``k`` columns
of the full eigenbasis) until no split happens.  One helper,
:func:`_bisect`, states that split rule for the split sweeps and for the
safety net that caps whatever the sweeps leave oversized.

Deviation from the paper (documented in DESIGN.md): the pseudo-code
initializes centroids "as zeros", which makes the first k-means assignment
fully degenerate (every distance ties).  We seed with k-means++ on the first
pass and carry assignment-derived centroids across embedding changes, then
follow the split logic verbatim.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
from scipy import sparse

from repro.clustering.kmeans import _update_centroids, kmeans, kmeans_plus_plus_centroids
from repro.clustering.result import ClusteringResult
from repro.clustering.spectral import spectral_embedding
from repro.networks.connection_matrix import ConnectionMatrix
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_whole_number

#: Most passes of Algorithm 2's outer loop (re-embed, k-means, split).
MAX_OUTER_ITERATIONS = 50

#: The merge pass keeps a merge whose crossbar preference is above this
#: fraction of the better part's (:func:`_merge_undersized`).
MERGE_TOLERANCE = 0.6


def _bisect(points: np.ndarray, members: np.ndarray, rng: np.random.Generator) -> tuple:
    """Split ``members`` in two by a 2-means on their points.

    Returns ``(half, centroids)``: the mask of the members that form the new
    cluster, and the ``(2, d)`` centroids of the kept and the new part.  When
    k-means leaves one side empty (all points coincide), the members are cut
    in half by position instead, so every bisection makes progress.
    """
    sub = kmeans(points[members], 2, rng=rng)
    half = sub.labels == 1
    if half.any() and not half.all():
        return half, sub.centroids
    half = np.zeros(members.size, dtype=bool)
    half[members.size // 2 :] = True
    kept, new = points[members[~half]], points[members[half]]
    return half, np.stack([kept.mean(axis=0), new.mean(axis=0)])


def _split_oversized(
    points: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    max_size: int,
    rng: np.random.Generator,
) -> tuple:
    """One sweep of Algorithm 2 lines 8–14: bisect every oversized cluster.

    Oversized clusters are visited in ascending label order.  Each keeps its
    label and centroid row for the first half; the second half takes the
    next new label and an appended centroid row.  Returns the updated
    ``(labels, centroids, splits)``.
    """
    k = centroids.shape[0]
    oversized = np.flatnonzero(np.bincount(labels, minlength=k) > max_size)
    if oversized.size == 0:
        return labels, centroids, 0
    before, labels = labels, labels.copy()
    kept, new = [], []
    for offset, j in enumerate(oversized):
        members = np.flatnonzero(before == j)
        half, halves = _bisect(points, members, rng)
        labels[members[half]] = k + offset
        kept.append(halves[0])
        new.append(halves[1])
    centroids = np.vstack([centroids, new])
    centroids[oversized] = kept
    return labels, centroids, int(oversized.size)


def _similarity(network: Union[ConnectionMatrix, np.ndarray]):
    """The 0/1 similarity the merge pass counts connections in."""
    if isinstance(network, ConnectionMatrix):
        return network.adjacency(np.float64)
    if sparse.issparse(network):
        return sparse.csr_array(network).astype(np.float64)
    return np.asarray(network, dtype=float)


def _connected(similarity) -> np.ndarray:
    """Mask of the neurons with a connection in either direction."""
    magnitude = abs(similarity)
    degree = np.asarray(magnitude.sum(axis=0)).ravel() + np.asarray(magnitude.sum(axis=1)).ravel()
    return degree > 0


def greedy_cluster_size_prediction(
    network: Union[ConnectionMatrix, np.ndarray],
    max_size: int,
    rng: RngLike = None,
    split_mode: str = "lloyd",
) -> ClusteringResult:
    """Run GCP (Algorithm 2): size-capped spectral clustering.

    Only the neurons that carry a connection are clustered.  Each isolated
    neuron adds another copy of eigenvalue 0 to the spectrum, and their
    shared embedding row is a blob that 2-means cannot split; ISC's
    remaining network holds more of them every iteration.  The isolated
    neurons, in ascending order, fill consecutive clusters of at most
    ``max_size`` after the connected neurons' clusters and never join them.
    Algorithm 2's ``k = n / s`` still counts every neuron, capped at the
    number of connected ones; when every neuron is connected, nothing is
    set aside and the input is embedded as given.

    After the split loop, undersized clusters merge with their nearest
    spectral centroids while the combined size stays ≤ ``max_size``
    (:func:`_merge_undersized`).  Algorithm 2 *predicts* ``k = n / s``
    clusters of size ≈ ``s`` (the paper's Fig. 4(a) shows exactly such
    balanced blocks); binary splitting alone can fragment
    weakly-structured networks far below that, which starves the ISC
    iterations.  The merge pass restores the predicted regime without
    ever violating the size cap.

    Parameters
    ----------
    network:
        Network (or raw similarity) to cluster.
    max_size:
        Upper bound ``s`` on every cluster size — the largest crossbar
        dimension available (64 in the paper's experiments).
    split_mode:
        ``"lloyd"`` (default) is Algorithm 2 verbatim: after every split
        sweep the full k-means re-converges before the next sweep.
        ``"bisect"`` runs the same first k-means and skips the sweeps, so
        the safety net's recursive bisection caps the sizes — faster, with
        looser crossbar packing.  The tiered large-network pass uses
        ``"bisect"``; the paper-scale flows keep ``"lloyd"``.

    Returns
    -------
    ClusteringResult
        A partition of all neurons with ``max(cluster sizes) <= max_size``,
        ``method == "gcp"``.  ``metadata["kmeans_calls"]`` counts the
        k-means runs, nested 2-means splits included.
    """
    rng = ensure_rng(rng)
    similarity = _similarity(network)
    n = similarity.shape[0]
    max_size = check_whole_number("max_size", max_size)
    if n == 0:
        raise ValueError("cannot cluster an empty network")
    if split_mode not in ("lloyd", "bisect"):
        raise ValueError(f"split_mode must be 'lloyd' or 'bisect', got {split_mode!r}")
    connected = _connected(similarity)
    members = np.flatnonzero(connected)
    labels = np.empty(n, dtype=np.int64)
    next_label = outer_iterations = kmeans_calls = 0
    if members.size:
        if members.size < n:  # else the input is embedded as given
            similarity = network = similarity[members][:, members]
        k = min(members.size, math.ceil(n / max_size))
        member_labels, outer_iterations, kmeans_calls = _cluster(
            network, similarity, k, max_size, rng, split_mode
        )
        labels[members] = member_labels
        next_label = int(member_labels.max()) + 1
    labels[~connected] = next_label + np.arange(n - members.size) // max_size
    return ClusteringResult(
        labels=labels,
        method="gcp",
        metadata={
            "max_size": max_size,
            "final_k": int(np.unique(labels).size),
            "outer_iterations": outer_iterations,
            "split_mode": split_mode,
            "kmeans_calls": kmeans_calls,
        },
    )


def _cluster(network, similarity, k: int, max_size: int, rng, split_mode: str) -> tuple:
    """Algorithm 2 on neurons that all carry a connection, from ``k`` clusters.

    Returns ``(labels, outer_iterations, kmeans_calls)``.
    """
    n = similarity.shape[0]
    # Algorithm 2 line 1 asks for the full generalized eigenbasis; only the
    # first k columns are ever read and k stays near n/s, so we compute the
    # basis lazily (a bounded prefix, extended on demand) — semantically
    # identical and several times faster on large networks.
    basis_cap = min(n, max(4 * k, 32))
    basis, _ = spectral_embedding(network, k=basis_cap)
    labels = None
    kmeans_calls = 0
    outer_iterations = 0
    while outer_iterations < MAX_OUTER_ITERATIONS:
        outer_iterations += 1
        if k > basis_cap:
            basis_cap = min(n, max(2 * basis_cap, k))
            basis, _ = spectral_embedding(network, k=basis_cap)
        points = basis[:, :k]
        if labels is None:
            centroids = kmeans_plus_plus_centroids(points, k, rng=rng)
        else:
            centroids = _update_centroids(
                points, labels, k, rng, repair_empty=False, previous_centroids=np.zeros((k, k))
            )
        outer_changed = False
        while True:
            km = kmeans(
                points,
                k,
                initial_centroids=centroids,
                max_iterations=40,
                rng=rng,
                repair_empty=False,
            )
            kmeans_calls += 1
            labels, centroids = km.labels, km.centroids
            if split_mode == "bisect":
                break
            labels, centroids, splits = _split_oversized(points, labels, centroids, max_size, rng)
            kmeans_calls += splits
            k = centroids.shape[0]
            if not splits:
                break
            outer_changed = True
            if k >= n:
                break
        if not outer_changed or k >= n:
            break
    # Safety net: guarantee the postcondition even if the loop budget ran
    # out while k-means kept re-merging (rare oscillation on symmetric data).
    points = basis[:, : min(k, basis.shape[1])]
    labels, splits = _enforce_size_limit(points, labels, max_size, rng)
    labels = _merge_undersized(points, labels, max_size, similarity)
    return labels, outer_iterations, kmeans_calls + splits


def _merge_undersized(
    points: np.ndarray, labels: np.ndarray, max_size: int, similarity
) -> np.ndarray:
    """Greedily merge small clusters with their nearest-centroid neighbour.

    A merge must not *hurt*: two clusters combine only when the merged
    cluster's crossbar preference (``m²/s³``) stays above
    :data:`MERGE_TOLERANCE` times the better of the two, or when neither
    cluster holds any connection (dead fragments merge freely by spectral
    proximity).  The tolerance trades crossbar granularity against outlier
    count: 1.0 (strictly improving merges) keeps many small dense crossbars
    but leaves more between-cluster connections to discrete synapses, while
    0.6 consolidates toward the 32–64 sizes the paper's final
    implementations show (Fig. 9(c)) and drives the ISC outlier ratio to
    the paper's few-percent range.

    The order is part of the contract (DESIGN.md).  Live clusters are
    visited by a stable sort on size; a visitor's partners that fit under
    ``max_size`` are tried by a stable sort on squared centroid distance;
    the first partner that passes absorbs the visitor, keeping its label,
    with the visitor's members first in the merged centroid's mean; and the
    scan restarts after every merge.
    """
    values, position, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    n, count = labels.shape[0], values.size
    members = np.split(np.argsort(position, kind="stable"), np.cumsum(sizes)[:-1])
    centroids = np.array([points[idx].mean(axis=0) for idx in members])
    # Cluster-pair connection counts via one indicator-matrix product:
    # pairs[a, b] = connections from cluster a's rows to b's cols.
    indicator = np.zeros((n, count))
    indicator[np.arange(n), position] = 1.0
    # Right-to-left keeps the product sparse-compatible (csr @ dense → dense);
    # all entries are 0/1 sums, exact in float64 on either path.
    pairs = indicator.T @ (similarity @ indicator)
    alive = np.ones(count, dtype=bool)
    labels = labels.copy()
    while count > 1:
        live = np.flatnonzero(alive)
        live_sizes = sizes[live]
        preference = np.diagonal(pairs)[live] ** 2 / live_sizes**3
        for a in np.argsort(live_sizes, kind="stable"):
            value = live[a]
            fits = (live_sizes + sizes[value] <= max_size) & (live != value)
            if not fits.any():
                continue
            partners = live[fits]
            distance = np.sum((centroids[partners] - centroids[value]) ** 2, axis=1)
            order = np.argsort(distance, kind="stable")
            partners, other_cp = partners[order], preference[fits][order]
            m = (
                pairs[value, value]
                + pairs[partners, partners]
                + pairs[value, partners]
                + pairs[partners, value]
            )
            merged_cp = m * m / ((sizes[value] + sizes[partners]) ** 3)
            own_cp = preference[a]
            both_dead = (own_cp == 0.0) & (other_cp == 0.0)
            passes = both_dead | (merged_cp > MERGE_TOLERANCE * np.maximum(own_cp, other_cp))
            if not passes.any():
                continue
            other = partners[np.argmax(passes)]
            combined = np.concatenate([members[value], members[other]])
            labels[members[value]] = values[other]
            members[other] = combined
            sizes[other] = combined.size
            centroids[other] = points[combined].mean(axis=0)
            # Fold value's pair counts into other's row/column.
            pairs[other, :] += pairs[value, :]
            pairs[:, other] += pairs[:, value]
            alive[value] = False
            count -= 1
            break
        else:
            break  # no visitor found a partner
    return labels


def _enforce_size_limit(
    points: np.ndarray, labels: np.ndarray, max_size: int, rng: np.random.Generator
) -> tuple:
    """Bisect every oversized cluster until all fit (no re-k-means).

    Oversized clusters are taken from the highest label down; a split gives
    the new part the next unused label, then splits the new part, then the
    kept part, until each fits.  Returns ``(labels, splits)``.
    """
    labels = labels.copy()
    first_new = labels.max() + 1
    oversized = np.flatnonzero(np.bincount(labels) > max_size)
    stack = [np.flatnonzero(labels == value) for value in oversized]
    splits = 0
    while stack:
        members = stack.pop()
        if members.size <= max_size:
            continue
        half, _ = _bisect(points, members, rng)
        labels[members[half]] = first_new + splits
        splits += 1
        stack += [members[~half], members[half]]
    return labels, splits
