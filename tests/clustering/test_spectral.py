"""Tests for MSC (Algorithm 1) and the spectral embedding."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.spectral import modified_spectral_clustering, spectral_embedding
from repro.networks import ConnectionMatrix, random_sparse_network


class TestSpectralEmbedding:
    def test_full_basis_shape(self, block_network):
        basis, values = spectral_embedding(block_network, k=None)
        n = block_network.size
        assert basis.shape == (n, n)
        assert values.shape == (n,)

    def test_partial_basis(self, block_network):
        basis, values = spectral_embedding(block_network, k=5)
        assert basis.shape == (block_network.size, 5)

    def test_eigenvalues_ascending(self, block_network):
        _, values = spectral_embedding(block_network, k=None)
        assert np.all(np.diff(values) >= -1e-9)

    def test_smallest_eigenvalue_near_zero(self, block_network):
        # The constant vector is in the kernel of L for a connected graph.
        _, values = spectral_embedding(block_network, k=1)
        assert values[0] == pytest.approx(0.0, abs=1e-6)

    def test_number_of_near_zero_eigenvalues_counts_components(self):
        # Two disconnected cliques -> two ~zero generalized eigenvalues.
        m = np.zeros((6, 6), dtype=int)
        m[:3, :3] = 1
        m[3:, 3:] = 1
        np.fill_diagonal(m, 0)
        _, values = spectral_embedding(ConnectionMatrix.from_dense(m), k=3)
        assert values[0] == pytest.approx(0.0, abs=1e-8)
        assert values[1] == pytest.approx(0.0, abs=1e-8)
        assert values[2] > 1e-6

    def test_isolated_nodes_handled(self):
        m = np.zeros((5, 5), dtype=int)
        m[0, 1] = m[1, 0] = 1
        basis, _ = spectral_embedding(ConnectionMatrix.from_dense(m), k=2)
        assert np.all(np.isfinite(basis))

    def test_rejects_bad_k(self, block_network):
        with pytest.raises(ValueError):
            spectral_embedding(block_network, k=0)
        with pytest.raises(ValueError):
            spectral_embedding(block_network, k=block_network.size + 1)

    def test_accepts_raw_matrix(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        basis, _ = spectral_embedding(w, k=1)
        assert basis.shape == (2, 1)

    def test_rejects_non_square_similarity(self):
        with pytest.raises(ValueError):
            spectral_embedding(np.zeros((2, 3)), k=1)


class TestMsc:
    def test_recovers_planted_blocks(self, block_network):
        result = modified_spectral_clustering(block_network, 3, rng=0)
        assert result.k == 3
        assert sorted(result.sizes()) == [20, 25, 30]
        clusters = [c.members for c in result.clusters]
        assert block_network.outlier_ratio(clusters) < 0.1

    def test_metadata(self, block_network):
        result = modified_spectral_clustering(block_network, 3, rng=0)
        assert result.method == "msc"
        assert result.metadata["requested_k"] == 3

    def test_partition_complete(self, sparse_network):
        result = modified_spectral_clustering(sparse_network, 4, rng=0)
        covered = sorted(m for c in result.clusters for m in c.members)
        assert covered == list(range(sparse_network.size))

    def test_k_one_single_cluster(self, sparse_network):
        result = modified_spectral_clustering(sparse_network, 1, rng=0)
        assert result.k == 1
        assert result.clusters[0].size == sparse_network.size

    def test_rejects_bad_k(self, sparse_network):
        with pytest.raises(ValueError):
            modified_spectral_clustering(sparse_network, 0)

    def test_directed_network_symmetrized(self):
        net = random_sparse_network(40, 0.1, symmetric=False, rng=3)
        result = modified_spectral_clustering(net, 3, rng=0)
        assert result.k <= 3  # empty clusters may collapse


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 6))
def test_property_msc_always_partitions(seed, k):
    net = random_sparse_network(30, 0.1, rng=seed)
    result = modified_spectral_clustering(net, k, rng=seed)
    covered = sorted(m for c in result.clusters for m in c.members)
    assert covered == list(range(30))


class TestEigensolverEquivalence:
    """The sparse (eigsh) path must match the dense (eigh) path at the
    cutover: same eigenvalues, same invariant subspace, same D-norm."""

    @pytest.fixture(scope="class")
    def cutover_similarity(self):
        from scipy import sparse as sp

        from repro.clustering.spectral import DENSE_EIGENSOLVER_CUTOFF, _similarity

        n = DENSE_EIGENSOLVER_CUTOFF + 176  # just past the dense routing
        net = random_sparse_network(n, 0.008, rng=13)
        w = _similarity(net)
        assert sp.issparse(w)  # the large sparse network stays sparse
        return w

    def test_eigsh_matches_eigh_at_cutover(self, cutover_similarity):
        from repro.clustering.spectral import dense_embedding, _sparse_embedding

        w = cutover_similarity
        k = 12
        sparse_vecs, sparse_vals = _sparse_embedding(w, k)
        dense_vecs, dense_vals = dense_embedding(w.toarray(), k)
        np.testing.assert_allclose(sparse_vals, dense_vals, atol=1e-9)
        # Eigenvectors are only defined up to rotation within degenerate
        # groups: compare the D-orthogonal projectors instead of columns.
        degrees = np.maximum(np.asarray(w.sum(axis=1)).ravel(), 1e-9)
        for vecs in (sparse_vecs, dense_vecs):
            gram = vecs.T @ (vecs * degrees[:, None])
            np.testing.assert_allclose(gram, np.eye(k), atol=1e-8)
        scaled_sparse = sparse_vecs * np.sqrt(degrees)[:, None]
        scaled_dense = dense_vecs * np.sqrt(degrees)[:, None]
        projector_gap = np.linalg.norm(
            scaled_sparse @ scaled_sparse.T - scaled_dense @ scaled_dense.T
        )
        assert projector_gap < 1e-6

    def test_routing_uses_sparse_solver_past_cutover(self, cutover_similarity):
        # The public entry point must agree with the dense answer too.
        from repro.clustering.spectral import dense_embedding

        w = cutover_similarity
        basis, values = spectral_embedding(w, k=6)
        _, dense_values = dense_embedding(w.toarray(), 6)
        assert basis.shape == (w.shape[0], 6)
        np.testing.assert_allclose(values, dense_values, atol=1e-9)

    def test_small_networks_stay_on_the_exact_solver(self, block_network):
        # tb1–tb3 sizes are far below the cutoff: bit-identical goldens
        # require the historical eigh path, not an iterative solve.
        from repro.clustering.spectral import DENSE_EIGENSOLVER_CUTOFF

        assert block_network.size <= DENSE_EIGENSOLVER_CUTOFF


class TestEighRetry:
    """A subset solve that fails to converge is re-solved in full with gvd."""

    @staticmethod
    def _recording_eigh(monkeypatch, failures):
        real_eigh = scipy.linalg.eigh
        calls = []

        def eigh(a, b=None, **kwargs):
            calls.append(kwargs)
            if len(calls) <= failures:
                raise scipy.linalg.LinAlgError("1 eigenvectors failed to converge")
            return real_eigh(a, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        return calls

    def test_failed_subset_solve_retries_with_gvd(self, monkeypatch):
        net = random_sparse_network(40, 0.08, rng=3)
        _, want_values = spectral_embedding(net, k=6)
        calls = self._recording_eigh(monkeypatch, failures=1)
        vectors, values = spectral_embedding(net, k=6)
        assert calls == [{"subset_by_index": (0, 5)}, {"driver": "gvd"}]
        assert vectors.shape == (40, 6)
        np.testing.assert_allclose(values, want_values, atol=1e-9)
        # Generalized eigenpairs of L u = λ D u, D-orthonormal.
        w = net.similarity().toarray()
        degrees = np.maximum(w.sum(axis=1), 1e-9)
        laplacian = np.diag(degrees) - w
        np.testing.assert_allclose(
            laplacian @ vectors, (degrees[:, None] * vectors) * values, atol=1e-8
        )
        gram = vectors.T @ (degrees[:, None] * vectors)
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_solvable_block_keeps_the_subset_call(self, monkeypatch):
        net = random_sparse_network(40, 0.08, rng=3)
        want = spectral_embedding(net, k=6)
        calls = self._recording_eigh(monkeypatch, failures=0)
        got = spectral_embedding(net, k=6)
        assert calls == [{"subset_by_index": (0, 5)}]
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
