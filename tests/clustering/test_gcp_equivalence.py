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
from tests.clustering.parent_partition import as_parent, clusters_from_labels

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


def _old_gcp(network, max_size, rng, split_mode):
    """The two-branch driver, on the reference helpers.

    Only ``n`` is read differently: the old body took ``np.asarray`` of the
    input, which fails on a scipy sparse similarity.
    """
    n = _similarity(network).shape[0]
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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 48),
    density=st.floats(0.0, 0.3),
    isolated=st.floats(0.0, 0.9),
    max_fraction=st.floats(0.0, 1.0),
    split_mode=st.sampled_from(["lloyd", "bisect"]),
    form=st.sampled_from(["matrix", "dense", "csr"]),
)
def test_gcp_matches_two_branch_driver(seed, n, density, isolated, max_fraction, split_mode, form):
    # Isolated neurons give the embedding coincident rows, as late ISC
    # iterations do.
    dense = np.array(random_sparse_network(n, density, rng=seed).matrix)
    dead = np.random.default_rng(seed).random(n) < isolated
    dense[dead, :] = 0
    dense[:, dead] = 0
    network = _network_forms(ConnectionMatrix.from_dense(dense))[form]
    max_size = 1 + int(max_fraction * (n - 1))
    old_rng, new_rng = _generators(seed)
    with _old_centroid_update():
        want, outer_iterations = _old_gcp(network, max_size, old_rng, split_mode)
    got = greedy_cluster_size_prediction(network, max_size, rng=new_rng, split_mode=split_mode)
    assert [c.members for c in as_parent(got).clusters] == [c.members for c in want]
    assert got.metadata["final_k"] == len(want)
    assert got.metadata["outer_iterations"] == outer_iterations
    assert got.metadata["split_mode"] == split_mode
    _assert_same_state(old_rng, new_rng)


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
