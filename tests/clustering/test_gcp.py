"""Tests for GCP (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.gcp as gcp_module
from repro.clustering.gcp import greedy_cluster_size_prediction
from repro.networks import block_diagonal_network, random_sparse_network


class TestSizeCap:
    @pytest.mark.parametrize("max_size", [8, 16, 25])
    def test_respects_limit(self, block_network, max_size):
        result = greedy_cluster_size_prediction(block_network, max_size, rng=0)
        assert result.max_size() <= max_size

    def test_limit_one_gives_singletons(self):
        net = random_sparse_network(12, 0.3, rng=0)
        result = greedy_cluster_size_prediction(net, 1, rng=0)
        assert result.max_size() == 1
        assert result.k == 12

    def test_huge_limit_unconstrained(self, block_network):
        result = greedy_cluster_size_prediction(block_network, 1000, rng=0)
        assert result.max_size() <= block_network.size

    def test_rejects_bad_limit(self, block_network):
        for max_size in (0, float("nan"), 2.5):
            with pytest.raises(ValueError, match="max_size"):
                greedy_cluster_size_prediction(block_network, max_size)


class TestQuality:
    def test_partition_complete(self, block_network):
        result = greedy_cluster_size_prediction(block_network, 20, rng=0)
        assert result.n == sum(result.sizes()) == block_network.size

    def test_method_and_metadata(self, block_network):
        result = greedy_cluster_size_prediction(block_network, 20, rng=0)
        assert result.method == "gcp"
        assert result.metadata["max_size"] == 20
        assert result.metadata["final_k"] == result.k

    def test_finds_block_structure_when_blocks_fit(self):
        net = block_diagonal_network([15, 15, 15], within_density=0.9,
                                     between_density=0.0, rng=4)
        result = greedy_cluster_size_prediction(net, 16, rng=0)
        assert net.outlier_ratio(result.labels) < 0.25

    def test_balance_merges_fragments(self, sparse_network, monkeypatch):
        # The merge pass runs last, on the split loop's labels; catch them.
        before_merge = []
        merge = gcp_module._merge_undersized

        def spy(points, labels, max_size, similarity):
            before_merge.append(labels)
            return merge(points, labels, max_size, similarity)

        monkeypatch.setattr(gcp_module, "_merge_undersized", spy)
        result = greedy_cluster_size_prediction(sparse_network, 30, rng=0)
        (labels,) = before_merge
        assert result.k <= len(np.unique(labels))

    def test_balance_never_violates_cap(self, sparse_network):
        result = greedy_cluster_size_prediction(sparse_network, 13, rng=0)
        assert result.max_size() <= 13


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    max_size=st.integers(3, 30),
    density=st.floats(0.02, 0.3),
)
def test_property_gcp_cap_and_cover(seed, max_size, density):
    net = random_sparse_network(35, density, rng=seed)
    result = greedy_cluster_size_prediction(net, max_size, rng=seed)
    assert result.max_size() <= max_size
    assert result.n == sum(result.sizes()) == 35
