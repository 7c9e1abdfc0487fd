"""Greedy cluster size prediction, GCP (paper Algorithm 2).

Classic spectral clustering has no notion of a maximum cluster size, but a
cluster mapped to a memristor crossbar must fit the largest crossbar in the
library (64×64 under current technology, Sec. 2.1 [6]).  GCP enforces the
limit greedily: starting from ``k = n / s`` clusters, any cluster that
exceeds the limit is split in two by a nested 2-means, its centroid is
replaced by the two sub-centroids, and ``k`` grows by one.  The outer loop
re-extracts the embedding with the enlarged ``k`` (the first ``k`` columns
of the full eigenbasis) until no split happens.

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

from repro.clustering.kmeans import kmeans, kmeans_plus_plus_centroids
from repro.clustering.result import ClusteringResult, clusters_from_labels
from repro.clustering.spectral import spectral_embedding
from repro.networks.connection_matrix import ConnectionMatrix
from repro.utils.rng import RngLike, ensure_rng

#: Most passes of Algorithm 2's outer loop (re-embed, k-means, split).
MAX_OUTER_ITERATIONS = 50


def _centroids_from_labels(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean of each cluster's points; empty clusters fall back to the origin."""
    centroids = np.zeros((k, points.shape[1]), dtype=float)
    counts = np.bincount(labels, minlength=k).astype(float)
    np.add.at(centroids, labels, points)
    nonempty = counts > 0
    centroids[nonempty] /= counts[nonempty, None]
    return centroids


def _split_oversized(
    points: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    max_size: int,
    rng: np.random.Generator,
) -> tuple:
    """One sweep of Algorithm 2 lines 8–14: 2-means-split every oversized cluster.

    Returns the updated ``(labels, centroids, changed)``.
    """
    changed = False
    k = centroids.shape[0]
    for j in range(k):
        members = np.nonzero(labels == j)[0]
        if members.size <= max_size:
            continue
        sub = kmeans(points[members], 2, rng=rng)
        # Guard against a degenerate split (all points identical): force an
        # arbitrary balanced cut so progress is guaranteed.
        if len(np.unique(sub.labels)) < 2:
            forced = np.zeros(members.size, dtype=int)
            forced[members.size // 2 :] = 1
            sub_labels = forced
            sub_centroids = np.stack(
                [points[members[forced == 0]].mean(axis=0), points[members[forced == 1]].mean(axis=0)]
            )
        else:
            sub_labels = sub.labels
            sub_centroids = sub.centroids
        new_label = centroids.shape[0]
        labels = labels.copy()
        labels[members[sub_labels == 1]] = new_label
        centroids = np.vstack([centroids, sub_centroids[1][None, :]])
        centroids[j] = sub_centroids[0]
        changed = True
    return labels, centroids, changed


def _similarity(network: Union[ConnectionMatrix, np.ndarray]):
    """The 0/1 similarity the merge pass counts connections in."""
    if isinstance(network, ConnectionMatrix):
        return network.adjacency(np.float64)
    if sparse.issparse(network):
        return sparse.csr_array(network).astype(np.float64)
    return np.asarray(network, dtype=float)


def greedy_cluster_size_prediction(
    network: Union[ConnectionMatrix, np.ndarray],
    max_size: int,
    rng: RngLike = None,
    split_mode: str = "lloyd",
) -> ClusteringResult:
    """Run GCP (Algorithm 2): size-capped spectral clustering.

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
        sweep the full k-means re-converges before the next sweep.  On
        hub-dominated topologies (scale-free tiers) that loop can run
        hundreds of sweeps, each re-running Lloyd's from scratch.
        ``"bisect"`` runs one k-means and then caps sizes by deterministic
        recursive 2-means bisection — the same machinery the safety net
        uses — trading a little cluster quality for orders of magnitude in
        speed.  The tiered large-network pass uses ``"bisect"``; the
        paper-scale flows keep ``"lloyd"``, so existing results are
        untouched.

    Returns
    -------
    ClusteringResult
        A partition of all neurons with ``max(cluster sizes) <= max_size``,
        ``method == "gcp"``.
    """
    rng = ensure_rng(rng)
    if isinstance(network, ConnectionMatrix):
        n = network.size
    else:
        n = np.asarray(network).shape[0]
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if n == 0:
        raise ValueError("cannot cluster an empty network")
    if split_mode not in ("lloyd", "bisect"):
        raise ValueError(f"split_mode must be 'lloyd' or 'bisect', got {split_mode!r}")
    # Algorithm 2 line 1 asks for the full generalized eigenbasis; only the
    # first k columns are ever read and k stays near n/s, so we compute the
    # basis lazily (a bounded prefix, extended on demand) — semantically
    # identical and several times faster on large networks.
    k = max(1, min(n, math.ceil(n / max_size)))
    basis_cap = min(n, max(4 * k, 32))
    basis, _ = spectral_embedding(network, k=basis_cap)
    if split_mode == "bisect":
        points = basis[:, :k]
        km = kmeans(points, k, max_iterations=40, rng=rng, repair_empty=False)
        labels = _enforce_size_limit(points, km.labels, max_size, rng)
        labels = _merge_undersized(points, labels, max_size, _similarity(network))
        clusters = clusters_from_labels(labels)
        return ClusteringResult(
            clusters=clusters,
            n=n,
            method="gcp",
            metadata={
                "max_size": max_size,
                "final_k": len(clusters),
                "outer_iterations": 1,
                "split_mode": "bisect",
            },
        )
    labels = None
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
            centroids = _centroids_from_labels(points, labels, k)
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
            labels, centroids = km.labels, km.centroids
            labels, centroids, inner_changed = _split_oversized(
                points, labels, centroids, max_size, rng
            )
            k = centroids.shape[0]
            if not inner_changed:
                break
            outer_changed = True
            if k >= n:
                break
        if not outer_changed or k >= n:
            break
    # Safety net: guarantee the postcondition even if the loop budget ran
    # out while k-means kept re-merging (rare oscillation on symmetric data).
    points = basis[:, : min(k, basis.shape[1])]
    labels = _enforce_size_limit(points, labels, max_size, rng)
    labels = _merge_undersized(points, labels, max_size, _similarity(network))
    clusters = clusters_from_labels(labels)
    return ClusteringResult(
        clusters=clusters,
        n=n,
        method="gcp",
        metadata={
            "max_size": max_size,
            "final_k": len(clusters),
            "outer_iterations": outer_iterations,
        },
    )


def _merge_undersized(
    points: np.ndarray,
    labels: np.ndarray,
    max_size: int,
    similarity,
    tolerance: float = 0.6,
) -> np.ndarray:
    """Greedily merge small clusters with their nearest-centroid neighbour.

    A merge must not *hurt*: two clusters combine only when the merged
    cluster's crossbar preference (``m²/s³``) stays above ``tolerance``
    times the better of the two, or when neither cluster holds any
    connection (dead fragments merge freely by spectral proximity).  The
    tolerance trades crossbar granularity against outlier count: 1.0
    (strictly improving merges) keeps many small dense crossbars but
    leaves more between-cluster connections to discrete synapses, while
    the calibrated default (0.6) consolidates toward the 32–64 sizes the
    paper's final implementations show (Fig. 9(c)) and drives the ISC
    outlier ratio to the paper's few-percent range.
    """
    labels = labels.copy()
    unique = list(np.unique(labels))
    members = {value: np.nonzero(labels == value)[0] for value in unique}
    centroids = {value: points[idx].mean(axis=0) for value, idx in members.items()}
    # Cluster-pair connection counts via one indicator-matrix product:
    # pair_connections[a, b] = connections from cluster a's rows to b's cols.
    index_of = {value: pos for pos, value in enumerate(unique)}
    n = labels.shape[0]
    indicator = np.zeros((n, len(unique)))
    for value, idx in members.items():
        indicator[idx, index_of[value]] = 1.0
    # Right-to-left keeps the product sparse-compatible (csr @ dense → dense);
    # all entries are 0/1 sums, exact in float64 on either path.
    pair_connections = indicator.T @ (similarity @ indicator)

    def preference(value) -> float:
        pos = index_of[value]
        m = pair_connections[pos, pos]
        s = max(members[value].size, 1)
        return float(m * m) / float(s**3)

    def merged_preference(a, b) -> float:
        pa, pb = index_of[a], index_of[b]
        m = (
            pair_connections[pa, pa]
            + pair_connections[pb, pb]
            + pair_connections[pa, pb]
            + pair_connections[pb, pa]
        )
        s = members[a].size + members[b].size
        return float(m * m) / float(s**3)

    while len(members) > 1:
        order = sorted(members, key=lambda v: members[v].size)
        merged = False
        for value in order:
            size = members[value].size
            partners = [
                other
                for other in members
                if other != value and members[other].size + size <= max_size
            ]
            if not partners:
                continue
            centroid = centroids[value]
            partners.sort(
                key=lambda other: float(np.sum((centroids[other] - centroid) ** 2))
            )
            own_cp = preference(value)
            for other in partners:
                other_cp = preference(other)
                both_dead = own_cp == 0.0 and other_cp == 0.0
                if not both_dead and merged_preference(value, other) <= tolerance * max(
                    own_cp, other_cp
                ):
                    continue
                combined = np.concatenate([members[value], members[other]])
                labels[combined] = other
                members[other] = combined
                centroids[other] = points[combined].mean(axis=0)
                # Fold value's pair counts into other's row/column.
                pv, po = index_of[value], index_of[other]
                pair_connections[po, :] += pair_connections[pv, :]
                pair_connections[:, po] += pair_connections[:, pv]
                del members[value]
                del centroids[value]
                del index_of[value]
                merged = True
                break
            if merged:
                break
        if not merged:
            break
    return labels


def _enforce_size_limit(
    points: np.ndarray, labels: np.ndarray, max_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Deterministically split any remaining oversized cluster (no re-k-means)."""
    labels = labels.copy()
    next_label = labels.max() + 1
    stack = [value for value in np.unique(labels)]
    while stack:
        value = stack.pop()
        members = np.nonzero(labels == value)[0]
        if members.size <= max_size:
            continue
        sub = kmeans(points[members], 2, rng=rng)
        half = sub.labels == 1
        if not half.any() or half.all():
            half = np.zeros(members.size, dtype=bool)
            half[members.size // 2 :] = True
        labels[members[half]] = next_label
        stack.append(value)
        stack.append(next_label)
        next_label += 1
    return labels
