"""Unit and property tests for ConnectionMatrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import ConnectionMatrix, random_sparse_network


def simple_matrix():
    return ConnectionMatrix.from_dense(
        np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 0, 0, 1],
                [1, 0, 0, 0],
            ]
        ),
        name="simple",
    )


class TestConstruction:
    def test_basic_properties(self):
        net = simple_matrix()
        assert net.size == 4
        assert net.num_connections == 5
        assert net.sparsity == pytest.approx(1 - 5 / 16)
        assert net.density == pytest.approx(5 / 16)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ConnectionMatrix.from_dense(np.zeros((2, 3)))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            ConnectionMatrix.from_dense(np.full((3, 3), 2))

    def test_input_copied(self):
        raw = np.zeros((3, 3), dtype=np.uint8)
        net = ConnectionMatrix.from_dense(raw)
        raw[0, 1] = 1
        assert net.num_connections == 0

    def test_matrix_view_readonly(self):
        net = simple_matrix()
        with pytest.raises(ValueError):
            net.matrix[0, 0] = 1

    def test_equality(self):
        assert simple_matrix() == simple_matrix()
        other = ConnectionMatrix.from_dense(np.zeros((4, 4)))
        assert simple_matrix() != other

    def test_repr_mentions_name(self):
        assert "simple" in repr(simple_matrix())

    def test_copy_renames(self):
        net = simple_matrix().copy(name="renamed")
        assert net.name == "renamed"
        assert net == simple_matrix()


class TestSymmetry:
    def test_asymmetric_detected(self):
        assert not simple_matrix().is_symmetric()

    def test_symmetric_detected(self):
        m = np.array([[0, 1], [1, 0]])
        assert ConnectionMatrix.from_dense(m).is_symmetric()

    def test_symmetrized_max(self):
        net = simple_matrix()
        sym = net.symmetrized()
        assert sym[0, 3] == 1.0  # only 3->0 existed
        assert np.array_equal(sym, sym.T)


class TestClusterOperations:
    def test_connections_within(self):
        net = simple_matrix()
        assert net.connections_within([0, 1]) == 2  # 0->1 and 1->0
        assert net.connections_within([2]) == 0
        assert net.connections_within([]) == 0

    def test_outlier_count(self):
        net = simple_matrix()
        assert net.outlier_count([[0, 1]]) == 3
        assert net.outlier_ratio([[0, 1]]) == pytest.approx(3 / 5)

    def test_outlier_ratio_empty_network(self):
        net = ConnectionMatrix.from_dense(np.zeros((3, 3)))
        assert net.outlier_ratio([[0, 1, 2]]) == 0.0

    def test_remove_cluster(self):
        net = simple_matrix()
        reduced = net.remove_cluster([0, 1])
        assert reduced.num_connections == 3
        assert reduced.connections_within([0, 1]) == 0
        # original untouched
        assert net.num_connections == 5

    def test_remove_clusters_multiple(self):
        net = simple_matrix()
        reduced = net.remove_clusters([[0, 1], [2, 3]])
        assert reduced.connections_within([0, 1]) == 0
        assert reduced.connections_within([2, 3]) == 0

    def test_submatrix_default_cols(self):
        net = simple_matrix()
        block = net.submatrix([0, 1])
        assert block.shape == (2, 2)
        assert block[0, 1] == 1

    def test_submatrix_rect(self):
        net = simple_matrix()
        block = net.submatrix([0], [1, 2, 3])
        assert block.shape == (1, 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            simple_matrix().connections_within([0, 9])

    def test_connection_list_roundtrip(self):
        net = simple_matrix()
        pairs = net.connection_list()
        assert len(pairs) == net.num_connections
        rebuilt = np.zeros((4, 4), dtype=np.uint8)
        for i, j in pairs:
            rebuilt[i, j] = 1
        assert np.array_equal(rebuilt, net.matrix)


class TestPermutation:
    def test_permuted_preserves_connection_count(self):
        net = simple_matrix()
        permuted = net.permuted([3, 2, 1, 0])
        assert permuted.num_connections == net.num_connections

    def test_permutation_validates(self):
        with pytest.raises(ValueError):
            simple_matrix().permuted([0, 0, 1, 2])

    def test_identity_permutation(self):
        net = simple_matrix()
        assert net.permuted([0, 1, 2, 3]) == net


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 30), density=st.floats(0.0, 0.5), seed=st.integers(0, 10**6))
def test_property_remove_clusters_conserves(n, density, seed):
    """Within + outliers always partition the connection set."""
    net = random_sparse_network(n, density, rng=seed)
    half = list(range(n // 2))
    within = net.connections_within(half)
    remaining = net.remove_cluster(half)
    assert remaining.num_connections == net.num_connections - within


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 25), seed=st.integers(0, 10**6))
def test_property_sparsity_bounds(n, seed):
    net = random_sparse_network(n, 0.3, rng=seed)
    assert 0.0 <= net.sparsity <= 1.0
    assert net.num_connections == int(net.matrix.sum())
