"""Old-vs-new equivalence: CSR-only ``ConnectionMatrix`` vs the dense backend.

``ConnectionMatrix`` used to keep networks below a size/density threshold
in a dense ``uint8`` ndarray and the rest in CSR.  Canonical CSR is now the
only storage.  :class:`DenseReference` is a test-local copy of the deleted
dense method bodies; every property builds one random topology both ways
and asserts *exactly* equal results (every count is an integer sum and
every similarity entry is 0 or 1), so the proof that the CSR class computes
what the dense class did outlives the dense code.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.clustering import (
    greedy_cluster_size_prediction,
    iterative_spectral_clustering,
    modularity_clustering,
    spectral_embedding,
)
from repro.mapping import autoncs_mapping
from repro.networks import ConnectionMatrix, random_sparse_network
from tests.clustering import parent_partition as parent
from tests.crossbar_asserts import assert_same_crossbars, assert_same_pairs


class DenseReference:
    """The deleted dense backend: one ``uint8`` ndarray and its method bodies."""

    def __init__(self, matrix):
        self.w = np.asarray(matrix).astype(np.uint8, copy=True)

    @property
    def size(self):
        return self.w.shape[0]

    @property
    def num_connections(self):
        return int(self.w.sum())

    def adjacency(self, dtype=np.float64):
        return self.w.astype(dtype, copy=True)

    def connection_arrays(self):
        rows, cols = np.nonzero(self.w)
        return rows.astype(np.int64), cols.astype(np.int64)

    def out_degrees(self):
        return self.w.sum(axis=1, dtype=np.int64)

    def in_degrees(self):
        return self.w.sum(axis=0, dtype=np.int64)

    def digest(self):
        rows, cols = self.connection_arrays()
        h = hashlib.sha256()
        h.update(f"connection-matrix:{self.size}:{rows.size}:".encode("ascii"))
        h.update(np.ascontiguousarray(rows, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(cols, dtype="<i8").tobytes())
        return h.hexdigest()

    def is_symmetric(self):
        return bool(np.array_equal(self.w, self.w.T))

    def similarity(self):
        return np.maximum(self.w, self.w.T).astype(float)

    def submatrix(self, rows, cols=None):
        cols = rows if cols is None else cols
        return self.w[np.ix_(rows, cols)].copy()

    def connections_within(self, cluster):
        idx = np.asarray(cluster, dtype=int)
        if idx.size == 0:
            return 0
        return int(self.w[np.ix_(idx, idx)].sum())

    def remove_clusters(self, clusters):
        result = self.w.copy()
        for cluster in clusters:
            idx = np.asarray(cluster, dtype=int)
            if idx.size:
                result[np.ix_(idx, idx)] = 0
        return DenseReference(result)

    def permuted(self, order):
        idx = np.asarray(order, dtype=int)
        return DenseReference(self.w[np.ix_(idx, idx)])


def _pair(seed: int, n: int, density: float, symmetric: bool):
    """One random topology (self-loops allowed) as CSR class and reference."""
    rng = np.random.default_rng(seed)
    matrix = (rng.random((n, n)) < density).astype(np.uint8)
    if symmetric:
        matrix = np.maximum(matrix, matrix.T)
    return ConnectionMatrix.from_dense(matrix, name="parity"), DenseReference(matrix)


common = given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 40),
    density=st.floats(0.0, 0.4),
    symmetric=st.booleans(),
)


@settings(max_examples=25, deadline=None)
@common
def test_digest_and_equality_backend_independent(seed, n, density, symmetric):
    csr, ref = _pair(seed, n, density, symmetric)
    assert csr.digest() == ref.digest()
    assert csr == ConnectionMatrix.from_edges(n, ref.connection_arrays())
    assert csr.num_connections == ref.num_connections
    assert csr.is_symmetric() == ref.is_symmetric()
    flipped = ref.w.copy()
    flipped[0, n - 1] ^= 1
    assert csr != ConnectionMatrix.from_dense(flipped)


@settings(max_examples=25, deadline=None)
@common
def test_views_and_degrees_match(seed, n, density, symmetric):
    csr, ref = _pair(seed, n, density, symmetric)
    assert csr.matrix.dtype == np.uint8
    np.testing.assert_array_equal(csr.matrix, ref.w)
    degrees = [(csr.out_degrees(), ref.out_degrees()), (csr.in_degrees(), ref.in_degrees())]
    for got, want in degrees:
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    c_rows, c_cols = csr.connection_arrays()
    r_rows, r_cols = ref.connection_arrays()
    np.testing.assert_array_equal(c_rows, r_rows)
    np.testing.assert_array_equal(c_cols, r_cols)


@settings(max_examples=25, deadline=None)
@common
def test_cluster_operations_match(seed, n, density, symmetric):
    csr, ref = _pair(seed, n, density, symmetric)
    rng = np.random.default_rng(seed + 1)
    # Drawn with replacement: a repeated member is one neuron.
    members = rng.choice(n, size=max(1, n // 3))
    unique = np.unique(members)
    in_members = np.where(np.isin(np.arange(n), unique), 0, -1)
    assert parent.connections_within(csr, members) == ref.connections_within(unique)
    assert csr.connections_within_many(in_members).tolist() == [ref.connections_within(unique)]
    np.testing.assert_array_equal(csr.submatrix(members), ref.submatrix(members))
    rest = np.setdiff1d(np.arange(n), members)
    np.testing.assert_array_equal(
        csr.submatrix(members, rest), ref.submatrix(members, rest)
    )
    labels = rng.integers(0, 3, size=n)
    clusters = [np.flatnonzero(labels == value) for value in range(3)]
    want = [ref.connections_within(cluster) for cluster in clusters]
    np.testing.assert_array_equal(parent.connections_within_many(csr, clusters), want)
    got = csr.connections_within_many(labels).tolist()  # indexed by label, up to the largest
    assert got == want[: len(got)] and not any(want[len(got) :])
    first_two = np.where(labels < 2, labels, -1)
    want = ref.remove_clusters(clusters[:2]).digest()
    assert parent.remove_clusters(csr, clusters[:2]).digest() == want
    assert csr.remove_clusters(first_two).digest() == want
    want = ref.remove_clusters([unique]).digest()
    assert parent.remove_cluster(csr, members).digest() == want
    assert csr.remove_clusters(in_members).digest() == want


@settings(max_examples=25, deadline=None)
@common
def test_permuted_and_similarity_match(seed, n, density, symmetric):
    csr, ref = _pair(seed, n, density, symmetric)
    order = np.random.default_rng(seed + 2).permutation(n)
    assert csr.permuted(order).digest() == ref.permuted(order).digest()
    similarity = csr.similarity()
    assert similarity.dtype == np.float64 and similarity.has_sorted_indices
    np.testing.assert_array_equal(similarity.toarray(), ref.similarity())
    adjacency = csr.adjacency(np.float64)
    assert adjacency.dtype == np.float64
    np.testing.assert_array_equal(adjacency.toarray(), ref.adjacency(np.float64))


@settings(max_examples=25, deadline=None)
@common
def test_dense_and_sparse_round_trip(seed, n, density, symmetric):
    csr, ref = _pair(seed, n, density, symmetric)
    assert ConnectionMatrix.from_dense(csr.matrix) == csr
    assert ConnectionMatrix.from_sparse(csr.adjacency(np.uint8)) == csr
    assert ConnectionMatrix.from_sparse(sp.coo_array(ref.w)).digest() == ref.digest()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_from_edges_matches_from_dense(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    matrix = (rng.random((n, n)) < 0.2).astype(np.uint8)
    np.fill_diagonal(matrix, 0)
    rows, cols = np.nonzero(matrix)
    via_dense = ConnectionMatrix.from_dense(matrix)
    via_arrays = ConnectionMatrix.from_edges(n, (rows, cols))
    via_pairs = ConnectionMatrix.from_edges(n, list(zip(rows, cols)))
    via_repeats = ConnectionMatrix.from_edges(n, (np.tile(rows, 3), np.tile(cols, 3)))
    assert (
        via_dense.digest()
        == via_arrays.digest()
        == via_pairs.digest()
        == via_repeats.digest()
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 40),
    density=st.floats(0.0, 0.4),
    symmetric=st.booleans(),
    k_fraction=st.floats(0.0, 1.0),
)
def test_spectral_embedding_matches_dense_similarity(seed, n, density, symmetric, k_fraction):
    """Below the eigensolver cutoff the CSR similarity is densified into
    exactly the array the dense backend handed to ``eigh``."""
    csr, ref = _pair(seed, n, density, symmetric)
    k = max(1, round(k_fraction * n))
    got_vectors, got_values = spectral_embedding(csr, k=k)
    want_vectors, want_values = spectral_embedding(ref.similarity(), k=k)
    np.testing.assert_array_equal(got_values, want_values)
    np.testing.assert_array_equal(got_vectors, want_vectors)


def _dense_gcp(network, max_size, rng=None):
    """GCP on a dense array: the similarity and adjacency the dense backend fed it."""
    return greedy_cluster_size_prediction(network.matrix, max_size, rng=rng)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_clustering_and_mapping_backend_independent(seed):
    """The whole ISC → mapping pipeline matches its dense-input run."""
    net = random_sparse_network(36, 0.12, rng=seed)
    isc_csr = iterative_spectral_clustering(
        net, utilization_threshold=0.02, max_iterations=5, rng=seed
    )
    isc_dense = iterative_spectral_clustering(
        net, utilization_threshold=0.02, max_iterations=5, rng=seed, clusterer=_dense_gcp
    )
    assert_same_crossbars(isc_csr.crossbars, isc_dense.crossbars)
    assert_same_pairs(isc_csr.outliers, isc_dense.outliers)
    map_csr = autoncs_mapping(isc_csr)
    map_dense = autoncs_mapping(isc_dense)
    map_csr.validate()
    map_dense.validate()
    assert map_csr.num_crossbars == map_dense.num_crossbars
    assert map_csr.num_synapses == map_dense.num_synapses


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), max_size=st.integers(4, 16))
def test_clusterers_match_dense_input(seed, max_size):
    """Bisect GCP (the tiered pass's clusterer) and modularity clustering."""
    net = random_sparse_network(30, 0.15, symmetric=seed % 2 == 0, rng=seed)
    dense = net.matrix
    bisect_csr = greedy_cluster_size_prediction(net, max_size, rng=seed, split_mode="bisect")
    bisect_dense = greedy_cluster_size_prediction(dense, max_size, rng=seed, split_mode="bisect")
    assert [c.members for c in parent.as_parent(bisect_csr).clusters] == [
        c.members for c in parent.as_parent(bisect_dense).clusters
    ]
    np.testing.assert_array_equal(bisect_csr.labels, bisect_dense.labels)
    modularity_csr = modularity_clustering(net, max_size, rng=seed)
    modularity_dense = modularity_clustering(dense, max_size, rng=seed)
    assert [c.members for c in parent.as_parent(modularity_csr).clusters] == [
        c.members for c in parent.as_parent(modularity_dense).clusters
    ]
    np.testing.assert_array_equal(modularity_csr.labels, modularity_dense.labels)
