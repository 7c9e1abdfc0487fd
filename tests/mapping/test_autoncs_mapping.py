"""Tests for the AutoNCS hybrid mapping."""

import numpy as np
import pytest

from repro.hardware.library import CrossbarLibrary
from repro.mapping.autoncs_mapping import autoncs_mapping


class TestAutoncsMapping:
    def test_valid(self, small_mapping):
        small_mapping.validate()

    def test_synapses_match_outliers(self, small_isc, small_mapping):
        assert small_mapping.num_synapses == len(small_isc.outliers)

    def test_crossbars_match_assignments(self, small_isc, small_mapping):
        assert small_mapping.num_crossbars == len(small_isc.crossbars)

    def test_instances_square_clusters(self, small_mapping):
        for inst in small_mapping.instances:
            np.testing.assert_array_equal(inst.rows, inst.cols)

    def test_utilization_better_than_baseline(self, small_mapping, small_fullcro):
        assert small_mapping.average_utilization > small_fullcro.average_utilization

    def test_summary_has_histogram(self, small_mapping):
        summary = small_mapping.summary()
        assert sum(summary["size_histogram"].values()) == small_mapping.num_crossbars

    def test_rejects_incompatible_library(self, small_isc):
        placed_sizes = {a.size for a in small_isc.crossbars}
        if not placed_sizes:
            pytest.skip("no crossbars placed")
        # a library missing the placed sizes must be rejected
        bad = CrossbarLibrary(sizes=(128,))
        with pytest.raises(ValueError, match="library"):
            autoncs_mapping(small_isc, library=bad)

    def test_metadata_carries_isc_stats(self, small_isc, small_mapping):
        assert small_mapping.metadata["isc_iterations"] == small_isc.iterations
        assert small_mapping.metadata["outlier_ratio"] == pytest.approx(
            small_isc.outlier_ratio
        )

    def test_fanin_fanout_total_positive(self, small_mapping):
        breakdown = small_mapping.fanin_fanout()
        assert breakdown.total.sum() > 0
