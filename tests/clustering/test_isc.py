"""Tests for ISC (Algorithm 3) — the core AutoNCS clustering loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.isc import (
    CrossbarAssignment,
    iterative_spectral_clustering,
    single_pass_clusters,
)
from repro.mapping import fullcro_utilization
from repro.networks import ConnectionMatrix, block_diagonal_network, random_sparse_network


class TestCrossbarAssignment:
    def test_properties(self):
        a = CrossbarAssignment(
            members=(0, 1, 2), size=16, connections=((0, 1), (1, 2)), iteration=1
        )
        assert a.utilized_connections == 2
        assert a.utilization == pytest.approx(2 / 256)
        assert a.preference == pytest.approx(4 / 16**3)

    def test_rejects_oversized_cluster(self):
        with pytest.raises(ValueError, match="cannot fit"):
            CrossbarAssignment(members=tuple(range(20)), size=16, connections=(), iteration=1)

    def test_rejects_foreign_connection(self):
        with pytest.raises(ValueError, match="outside"):
            CrossbarAssignment(members=(0, 1), size=16, connections=((0, 5),), iteration=1)


class TestIscOnStructuredNetwork:
    def test_low_outliers_on_blocks(self, small_isc, block_network):
        assert small_isc.outlier_ratio < 0.1
        assert small_isc.iterations >= 1
        assert len(small_isc.crossbars) >= 1

    def test_invariant_coverage(self, small_isc):
        # validate() asserts crossbars + outliers == network exactly.
        small_isc.validate()

    def test_records_consistent(self, small_isc):
        total = small_isc.network.num_connections
        clustered = sum(r.connections_clustered for r in small_isc.records)
        assert clustered + len(small_isc.outliers) == total

    def test_outlier_series_monotone(self, small_isc):
        series = [r.outlier_ratio_after for r in small_isc.records]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    def test_crossbars_within_library(self, small_isc):
        for assignment in small_isc.crossbars:
            assert assignment.size in small_isc.sizes
            assert len(assignment.members) <= assignment.size

    def test_histogram_counts(self, small_isc):
        histogram = small_isc.crossbar_size_histogram()
        assert sum(histogram.values()) == len(small_isc.crossbars)


class TestIscControls:
    def test_high_threshold_stops_early(self, block_network):
        isc = iterative_spectral_clustering(
            block_network, utilization_threshold=0.99, rng=0
        )
        assert isc.iterations <= 2

    def test_max_iterations_respected(self, sparse_network):
        isc = iterative_spectral_clustering(
            sparse_network, utilization_threshold=0.0, max_iterations=3, rng=0
        )
        assert isc.iterations <= 3

    def test_selection_quantile_affects_placement_rate(self, block_network):
        greedy = iterative_spectral_clustering(
            block_network, utilization_threshold=0.0, selection_quantile=1e-9,
            max_iterations=2, rng=0,
        )
        picky = iterative_spectral_clustering(
            block_network, utilization_threshold=0.0, selection_quantile=0.75,
            max_iterations=2, rng=0,
        )
        if greedy.records and picky.records:
            assert greedy.records[0].crossbars_placed >= picky.records[0].crossbars_placed

    def test_custom_preference_function(self, block_network):
        isc = iterative_spectral_clustering(
            block_network,
            utilization_threshold=0.01,
            preference=lambda m, s: float(m),
            rng=0,
        )
        isc.validate()

    def test_empty_network(self):
        empty = ConnectionMatrix.from_dense(np.zeros((20, 20)))
        isc = iterative_spectral_clustering(empty, utilization_threshold=0.01, rng=0)
        assert isc.iterations == 0
        assert isc.outliers == []
        assert isc.outlier_ratio == 0.0

    def test_rejects_bad_quantile(self, block_network):
        with pytest.raises(ValueError):
            iterative_spectral_clustering(block_network, selection_quantile=0.0)

    def test_rejects_bad_sizes(self, block_network):
        with pytest.raises(ValueError):
            iterative_spectral_clustering(block_network, sizes=())

    def test_rejects_non_network(self):
        with pytest.raises(TypeError):
            iterative_spectral_clustering(np.zeros((5, 5)))

    def test_rejects_bad_max_iterations(self, block_network):
        with pytest.raises(ValueError):
            iterative_spectral_clustering(block_network, max_iterations=0)


class TestSinglePass:
    def test_clusters_have_connections(self, block_network):
        clusters = single_pass_clusters(block_network, 30, rng=0)
        for cluster in clusters:
            assert block_network.connections_within(cluster.members) > 0

    def test_respects_size(self, block_network):
        clusters = single_pass_clusters(block_network, 25, rng=0)
        assert all(c.size <= 25 for c in clusters)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_isc_conserves_connections(seed):
    """The core invariant: every connection lands exactly once."""
    net = block_diagonal_network([12, 10, 8], within_density=0.7,
                                 between_density=0.05, rng=seed)
    threshold = fullcro_utilization(net, 64)
    isc = iterative_spectral_clustering(net, utilization_threshold=threshold, rng=seed)
    isc.validate()
    implemented = sum(x.utilized_connections for x in isc.crossbars) + len(isc.outliers)
    assert implemented == net.num_connections


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), density=st.floats(0.02, 0.2))
def test_property_isc_random_networks(seed, density):
    net = random_sparse_network(40, density, rng=seed)
    isc = iterative_spectral_clustering(
        net, utilization_threshold=0.05, max_iterations=5, rng=seed
    )
    isc.validate()
    assert 0.0 <= isc.outlier_ratio <= 1.0
