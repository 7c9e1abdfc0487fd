"""Tests for the pipeline configuration."""

import pytest

from repro.core.config import AutoNcsConfig, fast_config
from repro.physical.cost import CostWeights


class TestAutoNcsConfig:
    def test_defaults_match_paper(self):
        config = AutoNcsConfig()
        assert config.crossbar_sizes == tuple(range(16, 65, 4))
        assert config.selection_quantile == 0.75
        assert config.utilization_threshold is None  # -> FullCro baseline
        assert config.cost_weights == CostWeights(1.0, 1.0, 1.0)

    def test_sizes_sorted_and_validated(self):
        config = AutoNcsConfig(crossbar_sizes=(64, 16, 32))
        assert config.crossbar_sizes == (16, 32, 64)

    def test_rejects_empty_sizes(self):
        with pytest.raises(ValueError, match="crossbar_sizes"):
            AutoNcsConfig(crossbar_sizes=())

    def test_rejects_fractional_or_nan_sizes(self):
        # (16.7, 63.9) used to truncate to (16, 63); NaN failed unnamed.
        for sizes in ((16.7, 63.9), (float("nan"), 64), (0, 16)):
            with pytest.raises(ValueError, match=r"crossbar_sizes\[0\]"):
                AutoNcsConfig(crossbar_sizes=sizes)

    def test_sizes_deduplicated_as_ints(self):
        config = AutoNcsConfig(crossbar_sizes=(16, 64.0, 16))
        assert config.crossbar_sizes == (16, 64)
        assert all(type(size) is int for size in config.crossbar_sizes)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            AutoNcsConfig(selection_quantile=1.0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            AutoNcsConfig(utilization_threshold=-0.1)

    def test_rejects_nan_threshold(self):
        # ISC stops when the round's utilization falls below t; under a NaN
        # t that test never fires.
        with pytest.raises(ValueError, match="utilization_threshold"):
            AutoNcsConfig(utilization_threshold=float("nan"))

    def test_rejects_bad_iterations(self):
        # Under NaN, ISC ran no iteration and sent every connection to a synapse.
        for value in (0, float("nan"), 2.5):
            with pytest.raises(ValueError, match="max_isc_iterations"):
                AutoNcsConfig(max_isc_iterations=value)

    def test_whole_number_fields_stored_as_int(self):
        config = AutoNcsConfig(max_isc_iterations=7.0)
        assert config.max_isc_iterations == 7
        assert type(config.max_isc_iterations) is int

    def test_fast_config_reduced_budgets(self):
        config = fast_config()
        assert config.max_isc_iterations <= 10
        assert config.placement.max_lambda_stages <= 5
