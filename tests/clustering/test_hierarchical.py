"""Tests for the tiered clustering pass (:mod:`repro.clustering.hierarchical`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import (
    DEFAULT_TIER_SIZE,
    cluster_hierarchical,
    coarse_partition,
    iterative_spectral_clustering,
)
import repro.core.autoncs as autoncs_module
from repro.core.autoncs import AutoNCS
from repro.core.config import HIERARCHICAL_THRESHOLD
from repro.mapping import autoncs_mapping, fullcro_utilization
from repro.networks import block_diagonal_network, random_sparse_network, scale_free_network


@pytest.fixture(scope="module")
def tiered_network():
    """Planted blocks, big enough to split into several tiers of 32."""
    return block_diagonal_network(
        [24, 20, 22, 18, 24], within_density=0.6, between_density=0.01, rng=5
    )


class TestCoarsePartition:
    def test_partitions_all_neurons(self, tiered_network):
        result = coarse_partition(tiered_network, tier_size=32, rng=0)
        assert result.n == sum(result.sizes()) == tiered_network.size
        assert result.method == "coarse"

    def test_respects_tier_size(self, tiered_network):
        result = coarse_partition(tiered_network, tier_size=32, rng=0)
        assert result.max_size() <= 32
        assert result.k >= tiered_network.size // 32

    def test_single_tier_when_network_fits(self, tiered_network):
        result = coarse_partition(tiered_network, tier_size=10_000, rng=0)
        assert result.k == 1

    def test_rejects_bad_tier_size(self, tiered_network):
        # NaN used to return one tier of every neuron; 2.5 failed in k-means.
        for tier_size in (0, float("nan"), 2.5):
            with pytest.raises(ValueError, match="tier_size"):
                coarse_partition(tiered_network, tier_size=tier_size)
            with pytest.raises(ValueError, match="tier_size"):
                cluster_hierarchical(tiered_network, tier_size=tier_size)

    def test_deterministic(self, tiered_network):
        a = coarse_partition(tiered_network, tier_size=32, rng=3)
        b = coarse_partition(tiered_network, tier_size=32, rng=3)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestClusterHierarchical:
    def test_small_network_delegates_to_flat_isc(self, tiered_network):
        tiered = cluster_hierarchical(tiered_network, rng=0)  # size < tier_size
        flat = iterative_spectral_clustering(tiered_network, rng=0)
        assert [a.size for a in tiered.crossbars] == [a.size for a in flat.crossbars]
        for a, b in zip(tiered.crossbars, flat.crossbars):
            np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(tiered.outliers, flat.outliers)

    def test_tiered_result_validates(self, tiered_network):
        result = cluster_hierarchical(tiered_network, tier_size=32, rng=0)
        result.validate()  # every connection is crossbar xor outlier
        assert result.metadata["method"] == "hierarchical"
        assert result.metadata["tiers"] > 1
        assert result.crossbars

    def test_outlier_ratio_bounded_below_by_cut_ratio(self, tiered_network):
        result = cluster_hierarchical(tiered_network, tier_size=32, rng=0)
        assert result.outlier_ratio >= result.metadata["cut_ratio"] - 1e-12

    def test_deterministic(self, tiered_network):
        a = cluster_hierarchical(tiered_network, tier_size=32, rng=7)
        b = cluster_hierarchical(tiered_network, tier_size=32, rng=7)
        assert [x.size for x in a.crossbars] == [x.size for x in b.crossbars]
        for x, y in zip(a.crossbars, b.crossbars):
            np.testing.assert_array_equal(x.rows, y.rows)
        np.testing.assert_array_equal(a.outliers, b.outliers)

    def test_maps_downstream_unchanged(self, tiered_network):
        result = cluster_hierarchical(tiered_network, tier_size=32, rng=0)
        mapping = autoncs_mapping(result)
        mapping.validate()
        assert mapping.num_crossbars == len(result.crossbars)
        assert mapping.num_synapses == len(result.outliers)

    def test_scale_free_sparse_backend(self):
        # The stress topology, on CSR storage end to end.
        net = scale_free_network(200, rng=11)
        result = cluster_hierarchical(net, tier_size=64, rng=1)
        result.validate()
        assert result.metadata["tiers"] > 1

    def test_rejects_non_connection_matrix(self):
        with pytest.raises(TypeError, match="ConnectionMatrix"):
            cluster_hierarchical(np.zeros((4, 4)))

    def test_rejects_bad_sizes(self, tiered_network):
        # Both paths: the tiered pass and its flat-ISC delegation.
        for tier_size in (32, 10_000):
            for sizes in ((), (16.7, 63.9), (16, float("nan"))):
                with pytest.raises(ValueError, match="sizes"):
                    cluster_hierarchical(tiered_network, sizes=sizes, tier_size=tier_size)

    def test_sizes_stored_sorted_distinct(self, tiered_network):
        result = cluster_hierarchical(tiered_network, sizes=(32, 16, 32.0), tier_size=32, rng=0)
        assert result.sizes == (16, 32)
        assert all(type(size) is int for size in result.sizes)


class TestConfigRouting:
    def test_default_tier_size_exported(self):
        assert DEFAULT_TIER_SIZE == 1024

    @pytest.fixture()
    def clusterers(self, monkeypatch):
        """Spy on the two clustering functions ``AutoNCS.cluster`` may call."""
        calls = []
        for name in ("iterative_spectral_clustering", "cluster_hierarchical"):
            monkeypatch.setattr(
                autoncs_module, name,
                lambda network, name=name, **options: calls.append((name, options)),
            )
        return calls

    def test_autoncs_cluster_runs_flat_isc_up_to_threshold(self, clusterers):
        # Flat ISC up to and including the threshold.
        AutoNCS().cluster(random_sparse_network(HIERARCHICAL_THRESHOLD, 1e-3, rng=0), rng=0)
        assert [name for name, _ in clusterers] == ["iterative_spectral_clustering"]

    def test_autoncs_cluster_routes_hierarchical(self, clusterers):
        network = random_sparse_network(HIERARCHICAL_THRESHOLD + 1, 1e-3, rng=0)
        AutoNCS().cluster(network, rng=0)
        [(name, options)] = clusterers
        assert name == "cluster_hierarchical"
        assert "tier_size" not in options  # tiers of DEFAULT_TIER_SIZE
        assert options["utilization_threshold"] == fullcro_utilization(network)
