"""Tests for the traversing baseline."""

import pytest

import repro.clustering.spectral as spectral_module
from repro.clustering.traversing import traversing_clustering
from repro.networks import random_sparse_network


class TestTraversing:
    def test_respects_limit(self, block_network):
        result = traversing_clustering(block_network, 20, rng=0)
        assert result.max_size() <= 20

    def test_partition_complete(self, block_network):
        result = traversing_clustering(block_network, 20, rng=0)
        assert result.n == sum(result.sizes()) == block_network.size

    def test_metadata_attempts(self, block_network):
        result = traversing_clustering(block_network, 20, rng=0)
        assert result.method == "traversing"
        assert result.metadata["attempts"] >= 1
        assert result.metadata["final_k"] >= block_network.size // 20

    def test_limit_one(self):
        net = random_sparse_network(10, 0.3, rng=0)
        result = traversing_clustering(net, 1, rng=0)
        assert result.max_size() == 1

    def test_rejects_bad_limit(self, block_network):
        for max_size in (0, float("nan"), 2.5):
            with pytest.raises(ValueError, match="max_size"):
                traversing_clustering(block_network, max_size)

    def test_without_embedding_reuse(self, monkeypatch):
        # Every k tried is a whole MSC run, eigendecomposition included.
        calls = []
        solve = spectral_module.spectral_embedding

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectral_module, "spectral_embedding", counting)
        net = random_sparse_network(20, 0.2, rng=1)
        result = traversing_clustering(net, 8, rng=0)
        assert result.max_size() <= 8
        assert len(calls) == result.metadata["attempts"]
