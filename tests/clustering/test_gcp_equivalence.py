"""The GCP engine reproduces the loops it replaced, bit for bit.

The references below are the earlier bodies of GCP's helpers, of
k-means' centroid update and of the GCP driver, which ran the two split
modes as two branches.  They stated the 2-means split rule twice, summed
centroids with ``np.add.at`` in two places, and merged clusters over
label-keyed dicts.  Every check runs the reference and the current code
from equal generators and compares the labels, the centroid bytes and the
generator state after the call.  The inputs include coincident rows
(which force the cut-in-half rule), distance ties, clusters without
connections, every ``max_size`` from 1 to ``n``, dense and CSR
similarities, and both split modes end to end.

GCP now clusters only the neurons that carry a connection and puts the
isolated ones, in ascending order, into chunks of at most ``max_size``
after them, with ``k`` still counted over every neuron.  So the whole-GCP
reference runs the frozen two-branch body on the connected neurons'
sub-similarity from that ``k`` and appends the chunks; on inputs where
every neuron is connected it runs on the input as given, as before.
"""

import importlib
import math
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.clustering.gcp as gcp_module
from repro.clustering.gcp import (
    _enforce_size_limit,
    _merge_undersized,
    _similarity,
    _split_oversized,
    greedy_cluster_size_prediction,
)
from repro.clustering.kmeans import (
    _update_centroids,
    kmeans,
    kmeans_plus_plus_centroids,
)
from repro.clustering.spectral import spectral_embedding
from repro.networks import ConnectionMatrix, random_sparse_network
from tests.clustering.parent_partition import clusters_from_labels

# The package re-exports the function ``kmeans``, which shadows the module.
kmeans_module = importlib.import_module("repro.clustering.kmeans")


# ----------------------------------------------------------------------
# Reference bodies
# ----------------------------------------------------------------------
def _old_update_centroids(points, labels, k, rng, repair_empty, previous_centroids):
    centroids = previous_centroids.copy()
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, points.shape[1]), dtype=float)
    np.add.at(sums, labels, points)
    nonempty = counts > 0
    centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    if repair_empty and not np.all(nonempty):
        distances = np.sum((points - centroids[labels]) ** 2, axis=1)
        order = np.argsort(distances)[::-1]
        cursor = 0
        for j in np.nonzero(~nonempty)[0]:
            centroids[j] = points[order[cursor % points.shape[0]]]
            cursor += 1
    return centroids


def _old_centroids_from_labels(points, labels, k):
    centroids = np.zeros((k, points.shape[1]), dtype=float)
    counts = np.bincount(labels, minlength=k).astype(float)
    np.add.at(centroids, labels, points)
    nonempty = counts > 0
    centroids[nonempty] /= counts[nonempty, None]
    return centroids


def _old_split_oversized(points, labels, centroids, max_size, rng):
    changed = False
    k = centroids.shape[0]
    for j in range(k):
        members = np.nonzero(labels == j)[0]
        if members.size <= max_size:
            continue
        sub = kmeans(points[members], 2, rng=rng)
        if len(np.unique(sub.labels)) < 2:
            forced = np.zeros(members.size, dtype=int)
            forced[members.size // 2 :] = 1
            sub_labels = forced
            sub_centroids = np.stack(
                [
                    points[members[forced == 0]].mean(axis=0),
                    points[members[forced == 1]].mean(axis=0),
                ]
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


def _old_enforce_size_limit(points, labels, max_size, rng):
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


def _old_merge_undersized(points, labels, max_size, similarity, tolerance=0.6):
    labels = labels.copy()
    unique = list(np.unique(labels))
    members = {value: np.nonzero(labels == value)[0] for value in unique}
    centroids = {value: points[idx].mean(axis=0) for value, idx in members.items()}
    index_of = {value: pos for pos, value in enumerate(unique)}
    n = labels.shape[0]
    indicator = np.zeros((n, len(unique)))
    for value, idx in members.items():
        indicator[idx, index_of[value]] = 1.0
    pair_connections = indicator.T @ (similarity @ indicator)

    def preference(value):
        pos = index_of[value]
        m = pair_connections[pos, pos]
        s = max(members[value].size, 1)
        return float(m * m) / float(s**3)

    def merged_preference(a, b):
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
            partners.sort(key=lambda other: float(np.sum((centroids[other] - centroid) ** 2)))
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


def _old_gcp(network, max_size, rng, split_mode, k=None):
    """The two-branch driver, on the reference helpers.

    Only ``n`` is read differently: the old body took ``np.asarray`` of the
    input, which fails on a scipy sparse similarity.  ``k`` overrides the
    first ``ceil(n / max_size)``.
    """
    n = _similarity(network).shape[0]
    if k is None:
        k = max(1, min(n, math.ceil(n / max_size)))
    basis_cap = min(n, max(4 * k, 32))
    basis, _ = spectral_embedding(network, k=basis_cap)
    if split_mode == "bisect":
        points = basis[:, :k]
        km = kmeans(points, k, max_iterations=40, rng=rng, repair_empty=False)
        labels = _old_enforce_size_limit(points, km.labels, max_size, rng)
        labels = _old_merge_undersized(points, labels, max_size, _similarity(network))
        return clusters_from_labels(labels), 1
    labels = None
    outer_iterations = 0
    while outer_iterations < gcp_module.MAX_OUTER_ITERATIONS:
        outer_iterations += 1
        if k > basis_cap:
            basis_cap = min(n, max(2 * basis_cap, k))
            basis, _ = spectral_embedding(network, k=basis_cap)
        points = basis[:, :k]
        if labels is None:
            centroids = kmeans_plus_plus_centroids(points, k, rng=rng)
        else:
            centroids = _old_centroids_from_labels(points, labels, k)
        outer_changed = False
        while True:
            km = kmeans(
                points, k, initial_centroids=centroids, max_iterations=40,
                rng=rng, repair_empty=False,
            )
            labels, centroids = km.labels, km.centroids
            labels, centroids, inner_changed = _old_split_oversized(
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
    points = basis[:, : min(k, basis.shape[1])]
    labels = _old_enforce_size_limit(points, labels, max_size, rng)
    labels = _old_merge_undersized(points, labels, max_size, _similarity(network))
    return clusters_from_labels(labels), outer_iterations


def _reference_gcp(network, max_size, rng, split_mode):
    """``_old_gcp`` on the connected neurons, then the isolated chunks.

    Returns ``(labels, metadata)``; the reference's k-means runs are
    counted through this module's ``kmeans`` name, which its bodies call.
    """
    similarity = _similarity(network)
    dense = similarity.toarray() if sparse.issparse(similarity) else similarity
    n = dense.shape[0]
    connected = (dense != 0).any(axis=0) | (dense != 0).any(axis=1)
    members = np.flatnonzero(connected)
    labels = np.empty(n, dtype=np.int64)
    calls, outer_iterations, next_label = [], 0, 0
    if members.size:
        counted = globals()["kmeans"]

        def counting(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        globals()["kmeans"] = counting
        try:
            if members.size == n:
                clusters, outer_iterations = _old_gcp(network, max_size, rng, split_mode)
            else:
                clusters, outer_iterations = _old_gcp(
                    similarity[members][:, members],
                    max_size,
                    rng,
                    split_mode,
                    k=min(members.size, math.ceil(n / max_size)),
                )
        finally:
            globals()["kmeans"] = counted
        for label, cluster in enumerate(clusters):
            labels[members[list(cluster.members)]] = label
        next_label = len(clusters)
    isolated = np.flatnonzero(~connected)
    labels[isolated] = next_label + np.arange(isolated.size) // max_size
    metadata = {
        "max_size": max_size,
        "final_k": int(np.unique(labels).size),
        "outer_iterations": outer_iterations,
        "split_mode": split_mode,
        "kmeans_calls": len(calls),
    }
    return labels, metadata


@contextmanager
def _old_centroid_update():
    """Run k-means on the reference centroid update for the block."""
    current = kmeans_module._update_centroids
    kmeans_module._update_centroids = _old_update_centroids
    try:
        yield
    finally:
        kmeans_module._update_centroids = current


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _points(rng, n, d, distinct):
    """``n`` points; ``distinct`` > 0 draws them from that many rows, so
    rows coincide and centroid distances tie.  A column slice, as GCP
    passes its embedding prefix."""
    if distinct:
        base = rng.integers(-2, 3, size=(distinct, d + 1)).astype(float)
        wide = base[rng.integers(0, distinct, size=n)]
    else:
        wide = rng.standard_normal((n, d + 1))
    return wide[:, :d]


def _generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


DIMENSIONS = st.one_of(st.integers(1, 12), st.integers(120, 140))


# ----------------------------------------------------------------------
# Centroid sums
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    k=st.integers(1, 12),
    d=DIMENSIONS,
    distinct=st.integers(0, 3),
    repair_empty=st.booleans(),
)
def test_update_centroids_matches_add_at(seed, n, k, d, distinct, repair_empty):
    rng = np.random.default_rng(seed)
    points = _points(rng, n, d, distinct)
    labels = rng.integers(0, k, size=n)
    previous = rng.standard_normal((k, d))
    old_rng, new_rng = _generators(seed)
    want = _old_update_centroids(points, labels, k, old_rng, repair_empty, previous)
    got = _update_centroids(points, labels, k, new_rng, repair_empty, previous)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    _assert_same_state(old_rng, new_rng)
    # The zero fallback GCP uses between outer passes.
    want = _old_centroids_from_labels(points, labels, k)
    got = _update_centroids(
        points, labels, k, new_rng, repair_empty=False, previous_centroids=np.zeros((k, d))
    )
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Split sweeps and the safety net
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    k=st.integers(1, 8),
    d=st.integers(1, 6),
    distinct=st.integers(0, 3),
    max_fraction=st.floats(0.0, 1.0),
)
def test_split_oversized_matches(seed, n, k, d, distinct, max_fraction):
    rng = np.random.default_rng(seed)
    points = _points(rng, n, d, distinct)
    labels = rng.integers(0, k, size=n)
    centroids = rng.standard_normal((k, d))
    max_size = 1 + int(max_fraction * (n - 1))
    old_rng, new_rng = _generators(seed)
    want_labels, want_centroids, changed = _old_split_oversized(
        points, labels, centroids, max_size, old_rng
    )
    got_labels, got_centroids, splits = _split_oversized(
        points, labels, centroids, max_size, new_rng
    )
    np.testing.assert_array_equal(got_labels, want_labels)
    assert got_centroids.shape == want_centroids.shape
    assert got_centroids.tobytes() == want_centroids.tobytes()
    assert splits == want_centroids.shape[0] - k and changed == (splits > 0)
    _assert_same_state(old_rng, new_rng)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    k=st.integers(1, 8),
    d=st.integers(1, 6),
    distinct=st.integers(0, 3),
    max_fraction=st.floats(0.0, 1.0),
    gap=st.integers(0, 3),
)
def test_enforce_size_limit_matches(seed, n, k, d, distinct, max_fraction, gap):
    rng = np.random.default_rng(seed)
    points = _points(rng, n, d, distinct)
    labels = rng.integers(0, k, size=n) * (gap + 1)  # unused labels between
    max_size = 1 + int(max_fraction * (n - 1))
    old_rng, new_rng = _generators(seed)
    want = _old_enforce_size_limit(points, labels, max_size, old_rng)
    got, splits = _enforce_size_limit(points, labels, max_size, new_rng)
    np.testing.assert_array_equal(got, want)
    assert splits == len(np.unique(want)) - len(np.unique(labels))
    _assert_same_state(old_rng, new_rng)


# ----------------------------------------------------------------------
# Merge pass
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    k=st.integers(1, 20),
    d=DIMENSIONS,
    distinct=st.integers(0, 3),
    density=st.sampled_from([0.0, 0.02, 0.1, 0.4]),
    max_fraction=st.floats(0.0, 1.0),
    csr=st.booleans(),
)
def test_merge_undersized_matches(seed, n, k, d, distinct, density, max_fraction, csr):
    rng = np.random.default_rng(seed)
    points = _points(rng, n, d, distinct)
    labels = rng.integers(0, k, size=n) * 2  # unused labels between
    similarity = (rng.random((n, n)) < density).astype(float)
    if csr:
        similarity = sparse.csr_array(similarity)
    max_size = 1 + int(max_fraction * (n - 1))
    want = _old_merge_undersized(points, labels, max_size, similarity)
    got = _merge_undersized(points, labels, max_size, similarity)
    np.testing.assert_array_equal(got, want)


def test_merge_breaks_distance_ties_by_label():
    # Three coincident singletons without connections: the sizes tie, so
    # label 0 is visited first; its partners 2 and 4 tie on distance, so it
    # merges into 2, the lower label.  Then no pair fits under max_size.
    points = np.zeros((3, 2))
    labels = np.array([0, 2, 4])
    similarity = np.zeros((3, 3))
    got = _merge_undersized(points, labels, 2, similarity)
    np.testing.assert_array_equal(got, _old_merge_undersized(points, labels, 2, similarity))
    np.testing.assert_array_equal(got, [2, 2, 4])


# ----------------------------------------------------------------------
# The whole driver, both split modes
# ----------------------------------------------------------------------
def _network_forms(network):
    return {
        "matrix": network,
        "dense": np.asarray(network.matrix, dtype=float),
        "csr": network.adjacency(),
    }


def _assert_gcp_matches(network, max_size, seed, split_mode):
    old_rng, new_rng = _generators(seed)
    with _old_centroid_update():
        want_labels, want_metadata = _reference_gcp(network, max_size, old_rng, split_mode)
    got = greedy_cluster_size_prediction(network, max_size, rng=new_rng, split_mode=split_mode)
    assert got.labels.tobytes() == want_labels.tobytes()
    assert got.metadata == want_metadata
    _assert_same_state(old_rng, new_rng)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 48),
    density=st.floats(0.0, 0.3),
    isolated=st.floats(0.0, 0.9),
    max_fraction=st.floats(0.0, 1.0),
    split_mode=st.sampled_from(["lloyd", "bisect"]),
    form=st.sampled_from(["matrix", "dense", "csr"]),
    symmetric=st.booleans(),
)
def test_gcp_matches_two_branch_driver(
    seed, n, density, isolated, max_fraction, split_mode, form, symmetric
):
    # Isolated neurons are what late ISC iterations hand GCP; a directed
    # network also has neurons with only incoming or outgoing connections.
    dense = np.array(random_sparse_network(n, density, symmetric=symmetric, rng=seed).matrix)
    dead = np.random.default_rng(seed).random(n) < isolated
    dense[dead, :] = 0
    dense[:, dead] = 0
    network = _network_forms(ConnectionMatrix.from_dense(dense))[form]
    max_size = 1 + int(max_fraction * (n - 1))
    _assert_gcp_matches(network, max_size, seed, split_mode)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 48),
    density=st.floats(0.0, 0.3),
    max_fraction=st.floats(0.0, 1.0),
    split_mode=st.sampled_from(["lloyd", "bisect"]),
    form=st.sampled_from(["matrix", "dense", "csr"]),
)
def test_gcp_matches_two_branch_body_when_all_connected(
    seed, n, density, max_fraction, split_mode, form
):
    # A ring joins every neuron, so GCP sets nothing aside, and the
    # reference runs the frozen two-branch body on the input as given.
    dense = np.array(random_sparse_network(n, density, rng=seed).matrix)
    dense[np.arange(n), (np.arange(n) + 1) % n] = 1
    network = _network_forms(ConnectionMatrix.from_dense(dense))[form]
    _assert_gcp_matches(network, 1 + int(max_fraction * (n - 1)), seed, split_mode)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_size=st.integers(4, 20),
    split_mode=st.sampled_from(["lloyd", "bisect"]),
)
def test_gcp_counts_its_kmeans_calls(seed, max_size, split_mode):
    network = random_sparse_network(60, 0.06, rng=seed)
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return kmeans(*args, **kwargs)

    gcp_module.kmeans = spy
    try:
        result = greedy_cluster_size_prediction(
            network, max_size, rng=seed, split_mode=split_mode
        )
    finally:
        gcp_module.kmeans = kmeans
    assert result.metadata["kmeans_calls"] == len(calls) > 0
