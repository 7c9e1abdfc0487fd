"""A clustering is one label array, and every consumer reads what the member lists gave.

Every clusterer used to end by turning its label array into ``Cluster``
member tuples (``clusters_from_labels``), ``ClusteringResult`` checked the
cover with Python sets, and ISC, the tiered pass and Figs. 3–5 handed
member lists back to ``ConnectionMatrix``, which rebuilt the labels on
every call.  ``parent_partition`` holds that code.  Each check below runs
the reference and the current code from equal seeds and asserts:

* MSC, traversing and ``coarse_partition`` (against their earlier bodies)
  and GCP and modularity clustering (against the parent conversion of the
  very labels they hand over) give the parent's member lists in the
  parent's order, with equal sizes, labels, permutation, metadata and
  generator state;
* the label methods of ``ConnectionMatrix`` and ISC's crossbar extraction
  agree with the member-list bodies on random partitions that leave some
  neurons unlabelled;
* flat ISC (under three clusterers) and the tiered pass give equal
  ``(rows, cols, size, connections)`` lists of Python ints, outliers,
  records, metadata, metrics and trace spans;
* Figs. 3–5 return equal values, floats included (runtimes aside).
"""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.gcp as gcp_module
import repro.clustering.modularity as modularity_module
from repro.clustering import (
    cluster_hierarchical,
    coarse_partition,
    greedy_cluster_size_prediction,
    iterative_spectral_clustering,
    modified_spectral_clustering,
    modularity_clustering,
    traversing_clustering,
)
from repro.clustering.gcp import _enforce_size_limit
from repro.clustering.hierarchical import _fast_gcp
from repro.clustering.isc import _crossbars
from repro.clustering.kmeans import kmeans
from repro.clustering.spectral import _similarity, spectral_embedding
from repro.experiments.figures import figure3, figure4, figure5
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.hardware.crossbar import pair_array
from repro.hardware.library import DEFAULT_CROSSBAR_SIZES
from repro.mapping import fullcro_utilization
from repro.networks import (
    ConnectionMatrix,
    block_diagonal_network,
    random_sparse_network,
    scale_free_network,
)
from repro.observability import recording
from repro.utils.rng import ensure_rng
from tests.clustering import parent_partition as parent
from tests.crossbar_asserts import assert_same_crossbars, assert_same_pairs


# ----------------------------------------------------------------------
# Reference: the clusterer bodies that changed, and the figure bodies
# ----------------------------------------------------------------------
def _parent_msc(network, k, rng=None, max_kmeans_iterations=100):
    rng = ensure_rng(rng)
    w = _similarity(network)
    n = w.shape[0]
    embedding, _ = spectral_embedding(w, k)
    km = kmeans(embedding, k, max_iterations=max_kmeans_iterations, rng=rng)
    return parent.ClusteringResult(
        clusters=parent.clusters_from_labels(km.labels),
        n=n,
        method="msc",
        metadata={"requested_k": k, "kmeans_iterations": km.n_iterations},
    )


def _parent_traversing(network, max_size, rng=None):
    """The earlier body's default path, ``reuse_embedding=False``."""
    rng = ensure_rng(rng)
    if isinstance(network, ConnectionMatrix):
        n = network.size
    else:
        n = np.asarray(network).shape[0]
    start_k = max(1, min(n, math.ceil(n / max_size)))
    attempts = 0
    for k in range(start_k, n + 1):
        attempts += 1
        labels = _parent_msc(network, k, rng=rng).labels()
        sizes = np.bincount(labels, minlength=k)
        if sizes.max() <= max_size:
            return parent.ClusteringResult(
                clusters=parent.clusters_from_labels(labels),
                n=n,
                method="traversing",
                metadata={"max_size": max_size, "attempts": attempts, "final_k": k},
            )
    raise AssertionError("unreachable")


def _parent_coarse_partition(network, tier_size, rng=None):
    rng = ensure_rng(rng)
    n = network.size
    k = max(1, -(-n // tier_size))
    if k == 1:
        labels = np.zeros(n, dtype=int)
    else:
        embedding, _ = spectral_embedding(network, k=min(k, n))
        km = kmeans(embedding, k, rng=rng)
        labels, _ = _enforce_size_limit(embedding, km.labels, tier_size, rng)
    return parent.ClusteringResult(
        clusters=parent.clusters_from_labels(labels),
        n=n,
        method="coarse",
        metadata={"tier_size": tier_size, "tiers": int(len(set(labels.tolist())))},
    )


def _members(clustering):
    return [c.members for c in clustering.clusters]


def _parent_figure3(network, rng=None, max_size=64):
    rng = ensure_rng(rng)
    k = max(1, math.ceil(network.size / max_size))
    clustering = _parent_msc(network, k, rng=rng)
    return {
        "n": network.size,
        "connections": network.num_connections,
        "k": k,
        "cluster_sizes": clustering.sizes(),
        "outlier_ratio": parent.outlier_ratio(network, _members(clustering)),
        "permutation": clustering.permutation(),
    }


def _parent_figure4(network, max_size=64, rng=None):
    rng = ensure_rng(rng)
    seed = int(rng.integers(0, 2**31 - 1))
    gcp = parent.as_parent(greedy_cluster_size_prediction(network, max_size, rng=seed))
    traversing = _parent_traversing(network, max_size, rng=seed)
    return {
        "max_size": max_size,
        "gcp_max_cluster": gcp.max_size(),
        "traversing_max_cluster": traversing.max_size(),
        "gcp_clusters": gcp.k,
        "traversing_clusters": traversing.k,
        "gcp_outlier_ratio": parent.outlier_ratio(network, _members(gcp)),
        "traversing_outlier_ratio": parent.outlier_ratio(network, _members(traversing)),
    }


def _parent_figure5(network, max_size=64, rng=None):
    rng = ensure_rng(rng)
    total = network.num_connections
    round1 = parent.as_parent(greedy_cluster_size_prediction(network, max_size, rng=rng))
    remaining = parent.remove_clusters(network, _members(round1))
    round2 = parent.as_parent(greedy_cluster_size_prediction(remaining, max_size, rng=rng))
    remaining2 = parent.remove_clusters(remaining, _members(round2))
    return {
        "initial_connections": total,
        "round1_outliers": remaining.num_connections,
        "round1_outlier_ratio": remaining.num_connections / total if total else 0.0,
        "round2_outliers": remaining2.num_connections,
        "round2_outlier_ratio": remaining2.num_connections / total if total else 0.0,
    }


@contextmanager
def _handed_labels(module):
    """Record every label array ``module`` hands to ``ClusteringResult``."""
    seen = []
    real = module.ClusteringResult

    def spy(labels, **kwargs):
        seen.append(np.array(labels))
        return real(labels=labels, **kwargs)

    module.ClusteringResult = spy
    try:
        yield seen
    finally:
        module.ClusteringResult = real


# ----------------------------------------------------------------------
# The comparisons
# ----------------------------------------------------------------------
def _assert_same_partition(new, old):
    members = [tuple(np.flatnonzero(new.labels == c).tolist()) for c in range(new.k)]
    assert members == _members(old)
    assert (new.n, new.k, new.method) == (old.n, old.k, old.method)
    assert new.sizes() == old.sizes() and all(type(s) is int for s in new.sizes())
    assert new.max_size() == old.max_size()
    assert new.labels.dtype == np.int64 and not new.labels.flags.writeable
    np.testing.assert_array_equal(new.labels, old.labels())
    assert new.permutation().dtype == old.permutation().dtype
    np.testing.assert_array_equal(new.permutation(), old.permutation())
    assert new.metadata == old.metadata


def _rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


def _spans(recorder):
    return [(span.name, span.attributes, span.depth) for span in recorder.tracer.spans]


def _assert_same_isc(new_run, old_run, network, **kwargs):
    with recording() as new_recorder:
        new = new_run(network, **kwargs)
    with recording() as old_recorder:
        old = old_run(network, **kwargs)
    assert_same_crossbars(new.crossbars, old.crossbars)
    for crossbar in new.crossbars:
        assert type(crossbar.size) is int
        np.testing.assert_array_equal(crossbar.rows, crossbar.cols)
    assert_same_pairs(new.outliers, old.outliers)
    assert repr(new.records) == repr(old.records)
    assert new.metadata == old.metadata and new.sizes == old.sizes
    assert new_recorder.snapshot().to_dict() == old_recorder.snapshot().to_dict()
    assert _spans(new_recorder) == _spans(old_recorder)
    return new


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def clusterable(draw, min_n=2, max_n=40):
    """A random network, some of its neurons isolated, as a matrix or a dense array."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    dense = np.array(random_sparse_network(n, draw(st.floats(0.0, 0.3)), rng=seed).matrix)
    dead = np.random.default_rng(seed).random(n) < draw(st.floats(0.0, 0.8))
    dense[dead, :] = 0
    dense[:, dead] = 0
    network = ConnectionMatrix.from_dense(dense)
    return network if draw(st.booleans()) else dense.astype(float)


@st.composite
def small_networks(draw, min_n=8, max_n=48):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return random_sparse_network(n, draw(st.floats(0.03, 0.3)), rng=seed)
    parts = np.array_split(np.arange(n), draw(st.integers(1, min(6, n))))
    return block_diagonal_network(
        [part.size for part in parts],
        within_density=draw(st.floats(0.3, 0.9)),
        between_density=0.03,
        rng=seed,
    )


@st.composite
def labelled(draw, max_n=40):
    """A random directed network (self-loops allowed) and labels in -1..3."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    network = ConnectionMatrix.from_dense(
        (rng.random((n, n)) < draw(st.floats(0.0, 0.4))).astype(np.uint8), name="labelled"
    )
    labels = rng.integers(-1, draw(st.integers(0, 4)), size=n)
    return network, labels


# ----------------------------------------------------------------------
# Clusterers
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(network=clusterable(), fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_msc_matches_parent(network, fraction, seed):
    n = network.shape[0] if isinstance(network, np.ndarray) else network.size
    k = 1 + int(fraction * (n - 1))
    new_rng, old_rng = _rngs(seed)
    new = modified_spectral_clustering(network, k, rng=new_rng)
    _assert_same_partition(new, _parent_msc(network, k, rng=old_rng))
    _assert_same_state(new_rng, old_rng)


@settings(max_examples=15, deadline=None)
@given(
    network=clusterable(max_n=24),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_traversing_matches_parent(network, fraction, seed):
    n = network.shape[0] if isinstance(network, np.ndarray) else network.size
    max_size = 1 + int(fraction * (n - 1))
    new_rng, old_rng = _rngs(seed)
    new = traversing_clustering(network, max_size, rng=new_rng)
    _assert_same_partition(new, _parent_traversing(network, max_size, rng=old_rng))
    _assert_same_state(new_rng, old_rng)


@settings(max_examples=20, deadline=None)
@given(
    network=clusterable(),
    fraction=st.floats(0.0, 1.0),
    split_mode=st.sampled_from(["lloyd", "bisect"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gcp_hands_over_the_parent_clusters(network, fraction, split_mode, seed):
    n = network.shape[0] if isinstance(network, np.ndarray) else network.size
    max_size = 1 + int(fraction * (n - 1))
    with _handed_labels(gcp_module) as seen:
        new = greedy_cluster_size_prediction(network, max_size, rng=seed, split_mode=split_mode)
    clusters = parent.clusters_from_labels(seen[-1])
    metadata = dict(new.metadata, final_k=len(clusters))  # the parent's count
    _assert_same_partition(new, parent.ClusteringResult(clusters, n, "gcp", metadata))


@settings(max_examples=15, deadline=None)
@given(network=clusterable(), fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_modularity_hands_over_the_parent_clusters(network, fraction, seed):
    n = network.shape[0] if isinstance(network, np.ndarray) else network.size
    max_size = 1 + int(fraction * (n - 1))
    with _handed_labels(modularity_module) as seen:
        new = modularity_clustering(network, max_size, rng=seed)
    clusters = parent.clusters_from_labels(seen[-1])
    _assert_same_partition(
        new, parent.ClusteringResult(clusters, n, "modularity", dict(new.metadata))
    )


@settings(max_examples=15, deadline=None)
@given(
    network=small_networks(min_n=2, max_n=80),
    tier_size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_coarse_partition_matches_parent(network, tier_size, seed):
    new_rng, old_rng = _rngs(seed)
    new = coarse_partition(network, tier_size=tier_size, rng=new_rng)
    _assert_same_partition(new, _parent_coarse_partition(network, tier_size, rng=old_rng))
    _assert_same_state(new_rng, old_rng)


# ----------------------------------------------------------------------
# ConnectionMatrix's label methods and ISC's extraction
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(labelled())
def test_label_methods_match_member_lists(case):
    network, labels = case
    clusters = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    counts = network.connections_within_many(labels)
    want = parent.connections_within_many(network, clusters)
    assert counts.dtype == want.dtype
    np.testing.assert_array_equal(counts, want)
    assert repr(network.outlier_ratio(labels)) == repr(parent.outlier_ratio(network, clusters))
    removed = network.remove_clusters(labels)
    assert removed == parent.remove_clusters(network, clusters)
    assert removed.name == network.name
    rows, cols, within = network.within_clusters(labels)
    assert int(within.sum()) == parent.connections_within_clusters(network, clusters)
    np.testing.assert_array_equal(rows[~within], removed.connection_arrays()[0])
    np.testing.assert_array_equal(cols[~within], removed.connection_arrays()[1])


@settings(max_examples=40, deadline=None)
@given(labelled())
def test_crossbar_extraction_matches_member_lists(case):
    network, labels = case
    # ISC hands over the selected clusters labelled 0..k-1, the rest -1.
    values = np.unique(labels[labels >= 0])
    chosen = np.where(labels >= 0, np.searchsorted(values, labels), -1)
    member_lists = [tuple(np.flatnonzero(chosen == c).tolist()) for c in range(values.size)]
    sizes = [network.size] * values.size
    crossbars = _crossbars(network, chosen, sizes)
    pairs = parent.clusters_connections(member_lists, network)
    assert len(crossbars) == len(member_lists) == len(pairs)
    for crossbar, members, group in zip(crossbars, member_lists, pairs):
        np.testing.assert_array_equal(crossbar.rows, members)
        np.testing.assert_array_equal(crossbar.cols, members)
        assert_same_pairs(crossbar.connections, pair_array(group))


# ----------------------------------------------------------------------
# ISC and the tiered pass
# ----------------------------------------------------------------------
SIZE_LIBRARIES = [DEFAULT_CROSSBAR_SIZES, (4, 8, 12, 16), (6, 10), (8,)]

isc_settings = st.fixed_dictionaries(
    {
        "sizes": st.sampled_from(SIZE_LIBRARIES),
        "utilization_threshold": st.sampled_from([0.0, 0.02, 0.05, 0.2]),
        "max_iterations": st.integers(1, 6),
        "rng": st.integers(0, 2**16),
    }
)


@settings(max_examples=25, deadline=None)
@given(
    small_networks(),
    isc_settings,
    st.sampled_from([greedy_cluster_size_prediction, _fast_gcp, modularity_clustering]),
)
def test_flat_isc_matches_parent(network, kwargs, clusterer):
    _assert_same_isc(
        iterative_spectral_clustering,
        parent.iterative_spectral_clustering,
        network,
        clusterer=clusterer,
        **kwargs,
    )


@settings(max_examples=15, deadline=None)
@given(small_networks(min_n=30, max_n=80), isc_settings, st.integers(8, 24))
def test_tiered_matches_parent(network, kwargs, tier_size):
    result = _assert_same_isc(
        cluster_hierarchical, parent.cluster_hierarchical, network, tier_size=tier_size, **kwargs
    )
    assert result.metadata["tiers"] > 1


def test_testbench_and_scale_free_tiers_match_parent():
    network = build_testbench(scaled_testbench(2, 120), rng=5).network
    result = _assert_same_isc(
        iterative_spectral_clustering,
        parent.iterative_spectral_clustering,
        network,
        utilization_threshold=fullcro_utilization(network, 64),
        rng=2,
    )
    assert result.iterations > 1
    network = scale_free_network(300, 2, rng=3)
    result = _assert_same_isc(
        cluster_hierarchical, parent.cluster_hierarchical, network, tier_size=64, rng=4
    )
    assert result.metadata["tiers"] > 2 and result.crossbars


# ----------------------------------------------------------------------
# Figures 3-5
# ----------------------------------------------------------------------
def _assert_same_values(new, old, skip=()):
    values = {k: v for k, v in dataclasses.asdict(new).items() if k not in skip}
    assert values.keys() == old.keys()
    for key, value in values.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == old[key].dtype
            np.testing.assert_array_equal(value, old[key])
        else:
            assert type(value) is type(old[key]) and repr(value) == repr(old[key]), key


@settings(max_examples=8, deadline=None)
@given(small_networks(min_n=20, max_n=48), st.integers(4, 24), st.integers(0, 2**16))
def test_figures_match_parent(network, max_size, seed):
    _assert_same_values(
        figure3(network, rng=seed, max_size=max_size),
        _parent_figure3(network, rng=seed, max_size=max_size),
    )
    _assert_same_values(
        figure4(network, max_size=max_size, rng=seed),
        _parent_figure4(network, max_size=max_size, rng=seed),
        skip=("gcp_runtime_ms", "traversing_runtime_ms"),
    )
    _assert_same_values(
        figure5(network, max_size=max_size, rng=seed),
        _parent_figure5(network, max_size=max_size, rng=seed),
    )
