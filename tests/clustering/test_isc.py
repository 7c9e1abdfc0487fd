"""Tests for ISC (Algorithm 3) — the core AutoNCS clustering loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.gcp as gcp_module
from repro.clustering.isc import iterative_spectral_clustering
from repro.hardware.crossbar import CrossbarInstance
from repro.mapping import fullcro_utilization
from repro.networks import ConnectionMatrix, block_diagonal_network, random_sparse_network
from repro.observability import get_recorder, recording


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
        for crossbar in small_isc.crossbars:
            assert crossbar.size in small_isc.sizes
            assert len(crossbar.rows) <= crossbar.size

    def test_crossbars_are_cluster_instances(self, small_isc):
        # Each crossbar is a mapping instance over one cluster: rows == cols.
        for crossbar in small_isc.crossbars:
            assert type(crossbar) is CrossbarInstance
            np.testing.assert_array_equal(crossbar.rows, crossbar.cols)
            np.testing.assert_array_equal(crossbar.rows, np.sort(crossbar.rows))

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
        assert isc.outliers.shape == (0, 2)
        assert isc.outlier_ratio == 0.0

    def test_rejects_bad_quantile(self, block_network):
        with pytest.raises(ValueError):
            iterative_spectral_clustering(block_network, selection_quantile=0.0)

    def test_rejects_bad_sizes(self, block_network):
        with pytest.raises(ValueError, match="sizes"):
            iterative_spectral_clustering(block_network, sizes=())
        # (16.7, 63.9) used to place 63x63 crossbars and store (16, 63).
        for sizes in ((16.7, 63.9), (16, float("nan"))):
            with pytest.raises(ValueError, match="sizes"):
                iterative_spectral_clustering(block_network, sizes=sizes)

    def test_sizes_stored_sorted_distinct(self):
        net = random_sparse_network(60, 0.1, rng=6)
        isc = iterative_spectral_clustering(net, sizes=(64, 16.0, 16), rng=0)
        assert isc.sizes == (16, 64)
        assert all(type(size) is int for size in isc.sizes)
        assert {x.size for x in isc.crossbars} <= {16, 64}

    def test_rejects_non_network(self):
        with pytest.raises(TypeError):
            iterative_spectral_clustering(np.zeros((5, 5)))

    def test_rejects_bad_max_iterations(self, block_network):
        # Under NaN the loop never ran and every connection became an outlier.
        for max_iterations in (0, float("nan"), 2.5):
            with pytest.raises(ValueError, match="max_iterations"):
                iterative_spectral_clustering(block_network, max_iterations=max_iterations)


class TestIscTracing:
    @pytest.fixture()
    def network(self):
        return random_sparse_network(150, 0.04, rng=5)

    @pytest.fixture()
    def spied(self, network, monkeypatch):
        """A traced ISC run and the GCP k-means calls a spy counted."""
        calls = []
        kmeans = gcp_module.kmeans

        def spy(*args, **kwargs):
            calls.append(1)
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(gcp_module, "kmeans", spy)
        with recording() as recorder:
            result = iterative_spectral_clustering(network, utilization_threshold=0.03, rng=3)
        return recorder, result, len(calls)

    def test_one_span_per_iteration(self, spied, network):
        recorder, result, _ = spied
        spans = recorder.tracer.named("isc.iteration")
        assert len(spans) == len(result.records) > 1
        assert [s.attributes["iteration"] for s in spans] == [
            r.iteration for r in result.records
        ]
        for span in spans:
            assert span.attributes["neurons"] == network.size
            assert 0 < span.attributes["live_neurons"] <= network.size
        # Realized clusters lose their connections, so fewer neurons stay live.
        assert spans[-1].attributes["live_neurons"] < spans[0].attributes["live_neurons"]

    def test_kmeans_calls_add_up(self, spied):
        recorder, _, calls = spied
        spans = recorder.tracer.named("isc.iteration")
        assert sum(s.attributes["kmeans_calls"] for s in spans) == calls > 0
        assert recorder.snapshot().get("isc.kmeans_calls") == calls

    def test_null_recorder_keeps_no_spans(self, network):
        iterative_spectral_clustering(network, utilization_threshold=0.03, rng=3)
        assert get_recorder().tracer.spans == []
        assert get_recorder().snapshot().empty


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
