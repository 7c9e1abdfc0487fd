"""GCP clusters only the neurons that carry a connection.

Isolated neurons, in ascending order, fill consecutive clusters of at most
``max_size`` after the connected neurons' clusters; Algorithm 2's first
``k`` still counts every neuron.  These properties hold for any input;
``tests/clustering/test_gcp_equivalence.py`` pins the exact labels.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.gcp as gcp_module
from repro.clustering.gcp import greedy_cluster_size_prediction
from repro.clustering.isc import iterative_spectral_clustering
from repro.core import AutoNCS
from repro.networks import ConnectionMatrix, random_sparse_network, scale_free_network
from repro.observability import Recorder, recording


def _network(seed, n, density, isolated, symmetric=True):
    """A random network whose drawn ``isolated`` share has no connection;
    a directed one has neurons with only incoming or outgoing ones."""
    dense = np.array(random_sparse_network(n, density, symmetric=symmetric, rng=seed).matrix)
    dead = np.random.default_rng(seed).random(n) < isolated
    dense[dead, :] = 0
    dense[:, dead] = 0
    return ConnectionMatrix.from_dense(dense)


def _connected(network):
    return (network.out_degrees() + network.in_degrees()) > 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    density=st.floats(0.0, 0.3),
    isolated=st.floats(0.0, 1.0),
    max_size=st.integers(1, 24),
    split_mode=st.sampled_from(["lloyd", "bisect"]),
    symmetric=st.booleans(),
)
def test_isolated_neurons_form_their_own_chunks(
    seed, n, density, isolated, max_size, split_mode, symmetric
):
    network = _network(seed, n, density, isolated, symmetric)
    result = greedy_cluster_size_prediction(network, max_size, rng=seed, split_mode=split_mode)
    labels = result.labels
    connected = _connected(network)
    assert result.n == n and result.max_size() <= max_size
    # No cluster mixes a connected and an isolated neuron.
    assert not set(labels[connected].tolist()) & set(labels[~connected].tolist())
    # The isolated neurons fill the last labels, max_size at a time, in order.
    chunks = math.ceil(np.count_nonzero(~connected) / max_size)
    expected = result.k - chunks + np.arange(np.count_nonzero(~connected)) // max_size
    np.testing.assert_array_equal(labels[~connected], expected)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 48),
    density=st.floats(0.0, 0.3),
    isolated=st.floats(0.0, 0.9),
    max_size=st.integers(1, 24),
    split_mode=st.sampled_from(["lloyd", "bisect"]),
    symmetric=st.booleans(),
)
def test_input_forms_give_equal_labels(
    seed, n, density, isolated, max_size, split_mode, symmetric
):
    network = _network(seed, n, density, isolated, symmetric)
    forms = (network, np.asarray(network.matrix, dtype=float), network.adjacency())
    labels = [
        greedy_cluster_size_prediction(form, max_size, rng=seed, split_mode=split_mode).labels
        for form in forms
    ]
    for other in labels[1:]:
        np.testing.assert_array_equal(other, labels[0])


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 200), max_size=st.integers(1, 70))
def test_network_without_connections_needs_no_embedding(n, max_size):
    def forbidden(*args, **kwargs):
        raise AssertionError("GCP embedded or clustered a network with no connection")

    saved = gcp_module.spectral_embedding, gcp_module.kmeans
    gcp_module.spectral_embedding = gcp_module.kmeans = forbidden
    try:
        rng = np.random.default_rng(n)
        state = rng.bit_generator.state
        network = ConnectionMatrix.from_edges(n, [])
        result = greedy_cluster_size_prediction(network, max_size, rng=rng)
    finally:
        gcp_module.spectral_embedding, gcp_module.kmeans = saved
    assert result.k == math.ceil(n / max_size)
    np.testing.assert_array_equal(result.labels, np.arange(n) // max_size)
    assert result.metadata["kmeans_calls"] == 0 and result.metadata["outer_iterations"] == 0
    assert rng.bit_generator.state == state


def test_isc_kmeans_calls_stay_below_the_cliff():
    # Re-clustering isolated neurons made this 6,485 k-means calls; the
    # connected neurons alone need 235.  A count, not a timing.
    recorder = Recorder()
    with recording(recorder):
        AutoNCS().cluster(scale_free_network(500, 2, rng=42), rng=42)
    assert recorder.snapshot().counters["isc.kmeans_calls"] <= 1000


def test_isc_counts_only_clusters_with_a_connection():
    # Late ISC iterations leave most neurons without a connection, and GCP
    # chunks those apart; a chunk is not a cluster formed.
    seen = []

    def clusterer(remaining, max_size, rng):
        result = greedy_cluster_size_prediction(remaining, max_size, rng=rng)
        seen.append((result.k, np.unique(result.labels[_connected(remaining)]).size))
        return result

    records = iterative_spectral_clustering(
        scale_free_network(500, 2, rng=42), utilization_threshold=0.05, rng=42,
        clusterer=clusterer,
    ).records
    assert [record.clusters_formed for record in records] == [
        formed for _, formed in seen[: len(records)]
    ]
    # Some iteration had chunks of isolated neurons to leave out.
    assert any(k > formed for k, formed in seen[: len(records)])
