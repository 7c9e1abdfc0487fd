"""Tests for the clustering result: one label per neuron."""

import numpy as np
import pytest

from repro.clustering.result import ClusteringResult
from tests.clustering.parent_partition import clusters_from_labels


def _members(result):
    return [tuple(np.flatnonzero(result.labels == c).tolist()) for c in range(result.k)]


class TestClusteringResult:
    def test_valid_partition(self):
        result = ClusteringResult(labels=[0, 0, 1], method="msc")
        assert result.n == 3
        assert result.k == 2
        assert result.sizes() == [2, 1]
        assert all(type(size) is int for size in result.sizes())
        assert result.max_size() == 2
        assert result.method == "msc"

    def test_rejects_overlap(self):
        # A neuron in two clusters would need two labels: a 2-D array.
        with pytest.raises(ValueError, match="labels"):
            ClusteringResult(labels=[[0, 1], [1, 2]])

    def test_rejects_incomplete_cover(self):
        # -1 is "in no cluster"; every neuron must be in one.
        with pytest.raises(ValueError, match="labels"):
            ClusteringResult(labels=[0, -1, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            ClusteringResult(labels=[0, -2])

    @pytest.mark.parametrize("labels", [[0.0, 1.0], [True, False], ["0", "1"]])
    def test_rejects_non_integer_labels(self, labels):
        with pytest.raises(ValueError, match="labels"):
            ClusteringResult(labels=labels)

    def test_labels_roundtrip(self):
        result = ClusteringResult(labels=np.array([7, 3, 7, 3], dtype=np.int32))
        np.testing.assert_array_equal(result.labels, [1, 0, 1, 0])
        assert result.labels.dtype == np.int64

    def test_labels_are_read_only_copies(self):
        raw = np.array([0, 1, 1])
        result = ClusteringResult(labels=raw)
        raw[0] = 1
        np.testing.assert_array_equal(result.labels, [0, 1, 1])
        with pytest.raises(ValueError):
            result.labels[0] = 5

    def test_permutation_groups_clusters(self):
        result = ClusteringResult(labels=[0, 1, 0])
        np.testing.assert_array_equal(result.permutation(), [0, 2, 1])
        result = ClusteringResult(labels=[1, 0, 1, 0, 2])
        np.testing.assert_array_equal(result.permutation(), [1, 3, 0, 2, 4])


class TestClustersFromLabels:
    """The renumbering gives the clusters ``clusters_from_labels`` built."""

    def test_basic(self):
        result = ClusteringResult(labels=[0, 1, 0, 2])
        assert _members(result) == [(0, 2), (1,), (3,)]
        assert _members(result) == [c.members for c in clusters_from_labels([0, 1, 0, 2])]

    def test_skips_missing_labels(self):
        result = ClusteringResult(labels=[9, 2, 9, 5, 2])
        np.testing.assert_array_equal(result.labels, [2, 0, 2, 1, 0])
        assert result.k == len(clusters_from_labels([9, 2, 9, 5, 2])) == 3

    def test_empty(self):
        result = ClusteringResult(labels=np.zeros(0, dtype=int))
        assert (result.n, result.k, result.sizes(), result.max_size()) == (0, 0, [], 0)
        assert result.permutation().size == 0
        assert clusters_from_labels([]) == []
