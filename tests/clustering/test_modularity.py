"""Tests for the modularity-clustering baseline."""

import numpy as np
import pytest

from repro.clustering.modularity import modularity_clustering
from repro.networks import ConnectionMatrix, block_diagonal_network


class TestModularityClustering:
    def test_partition_complete(self, block_network):
        result = modularity_clustering(block_network, 64, rng=0)
        assert result.n == sum(result.sizes()) == block_network.size
        assert result.method == "modularity"

    def test_size_cap(self, block_network):
        result = modularity_clustering(block_network, 12, rng=0)
        assert result.max_size() <= 12

    def test_finds_planted_blocks(self):
        net = block_diagonal_network([20, 18, 16], within_density=0.8,
                                     between_density=0.01, rng=2)
        result = modularity_clustering(net, 64, rng=0)
        assert net.outlier_ratio(result.labels) < 0.15

    def test_empty_graph_chunks(self):
        net = ConnectionMatrix.from_dense(np.zeros((10, 10)))
        result = modularity_clustering(net, 4, rng=0)
        assert result.max_size() <= 4
        assert result.k >= 3

    def test_rejects_bad_size(self, block_network):
        # Under NaN the bisection loop never ended; 2.5 acted as 2.
        for max_size in (0, float("nan"), 2.5):
            with pytest.raises(ValueError, match="max_size"):
                modularity_clustering(block_network, max_size)

    def test_comparable_to_gcp_on_blocks(self, block_network):
        from repro.clustering.gcp import greedy_cluster_size_prediction

        modularity = modularity_clustering(block_network, 32, rng=0)
        gcp = greedy_cluster_size_prediction(block_network, 32, rng=0)
        mod_out = block_network.outlier_ratio(modularity.labels)
        gcp_out = block_network.outlier_ratio(gcp.labels)
        # both find most of the planted structure
        assert mod_out < 0.6
        assert gcp_out < 0.6
