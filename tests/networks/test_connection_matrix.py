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

    def test_from_edges_collapses_duplicates(self):
        net = ConnectionMatrix.from_edges(3, [(0, 1), (1, 2), (0, 1)])
        np.testing.assert_array_equal(np.stack(net.connection_arrays(), 1), [(0, 1), (1, 2)])

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

    def test_similarity_max(self):
        net = simple_matrix()
        sym = net.similarity().toarray()
        assert sym[0, 3] == 1.0  # only 3->0 existed
        assert np.array_equal(sym, sym.T)


class TestClusterOperations:
    """The label methods: one integer per neuron, -1 meaning "in no cluster"."""

    def test_connections_within(self):
        net = simple_matrix()
        counts = net.connections_within_many([0, 0, -1, -1])
        assert counts.dtype == np.int64
        assert counts.tolist() == [2]  # 0->1 and 1->0
        assert net.connections_within_many([-1, 0, 0, -1]).tolist() == [1]  # only 1->2
        assert net.connections_within_many([-1, -1, 0, -1]).tolist() == [0]
        assert net.connections_within_many([-1, -1, -1, -1]).tolist() == []
        # Indexed by label: an unused label counts zero.
        assert net.connections_within_many([2, 2, 0, 0]).tolist() == [1, 0, 2]

    def test_unlabelled_neurons_are_ignored(self):
        net = simple_matrix()
        # 2->3 and 3->0 would join one cluster if -1 were a label.
        assert net.connections_within_many([-1, 0, -1, -1]).tolist() == [0]
        assert net.outlier_ratio([-1, -1, -1, -1]) == 1.0
        assert net.remove_clusters([-1, -1, -1, -1]) == net

    def test_outlier_count(self):
        net = simple_matrix()
        labels = [0, 0, -1, -1]
        assert net.num_connections - net.connections_within_many(labels).sum() == 3
        assert net.outlier_ratio(labels) == pytest.approx(3 / 5)
        assert net.outlier_ratio([0, 0, 0, 0]) == 0.0

    def test_outlier_ratio_empty_network(self):
        net = ConnectionMatrix.from_dense(np.zeros((3, 3)))
        assert net.outlier_ratio([0, 0, 0]) == 0.0

    def test_remove_cluster(self):
        net = simple_matrix()
        reduced = net.remove_clusters([0, 0, -1, -1])
        assert reduced.num_connections == 3
        assert reduced.connections_within_many([0, 0, -1, -1]).tolist() == [0]
        assert reduced.name == net.name
        # original untouched
        assert net.num_connections == 5

    def test_remove_clusters_multiple(self):
        net = simple_matrix()
        reduced = net.remove_clusters([0, 0, 1, 1])
        assert reduced.connections_within_many([0, 0, 1, 1]).tolist() == [0, 0]
        np.testing.assert_array_equal(np.stack(reduced.connection_arrays(), 1), [(1, 2), (3, 0)])

    def test_within_clusters_is_the_one_edge_test(self):
        rows, cols, within = simple_matrix().within_clusters([0, 0, 1, 1])
        edges = simple_matrix().connection_arrays()
        np.testing.assert_array_equal(np.stack([rows, cols]), np.stack(edges))
        assert within.tolist() == [True, True, False, True, False]

    def test_remove_clusters_rejects_overlap(self):
        # Member lists, overlapping or not, are not labels.
        net = ConnectionMatrix.from_edges(4, [(0, 2), (2, 3), (0, 1)])
        with pytest.raises(ValueError, match="labels"):
            net.remove_clusters([[0, 1, 2], [2, 3]])

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 0, 1],  # wrong length
            [0.0, 0.0, 1.0, 1.0],  # float
            [0, -2, 1, 1],  # below -1
            [[0, 1], [2, 3]],  # a member list
            [True, True, False, False],  # boolean
        ],
    )
    @pytest.mark.parametrize(
        "method", ["connections_within_many", "outlier_ratio", "remove_clusters"]
    )
    def test_rejects_bad_labels(self, method, labels):
        with pytest.raises(ValueError, match="labels"):
            getattr(simple_matrix(), method)(labels)

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
            simple_matrix().submatrix([0, 9])

    def test_connection_arrays_roundtrip(self):
        net = simple_matrix()
        rows, cols = net.connection_arrays()
        assert rows.size == cols.size == net.num_connections
        rebuilt = np.zeros((4, 4), dtype=np.uint8)
        rebuilt[rows, cols] = 1
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
    """Within + remaining always partition the connection set."""
    net = random_sparse_network(n, density, rng=seed)
    labels = np.random.default_rng(seed).integers(-1, 4, size=n)
    within = int(net.connections_within_many(labels).sum())
    remaining = net.remove_clusters(labels)
    assert remaining.num_connections == net.num_connections - within
    assert net.outlier_ratio(labels) == remaining.num_connections / max(net.num_connections, 1)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 25), seed=st.integers(0, 10**6))
def test_property_sparsity_bounds(n, seed):
    net = random_sparse_network(n, 0.3, rng=seed)
    assert 0.0 <= net.sparsity <= 1.0
    assert net.num_connections == int(net.matrix.sum())
