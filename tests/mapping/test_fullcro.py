"""Tests for the FullCro brute-force baseline."""

import numpy as np
import pytest

from repro.hardware.library import CrossbarLibrary
from repro.mapping.fullcro import fullcro_instances, fullcro_mapping, fullcro_utilization
from repro.networks import ConnectionMatrix, random_sparse_network


class TestFullcroInstances:
    def test_all_max_size(self, block_network):
        instances = fullcro_instances(block_network, 64)
        assert all(inst.size == 64 for inst in instances)

    def test_covers_every_connection(self, block_network):
        instances = fullcro_instances(block_network, 64)
        covered = sum(inst.utilized_connections for inst in instances)
        assert covered == block_network.num_connections

    def test_skips_empty_blocks(self):
        # connections only inside the first 10 neurons -> one block
        m = np.zeros((130, 130), dtype=np.uint8)
        m[:10, :10] = 1
        np.fill_diagonal(m, 0)
        net = ConnectionMatrix.from_dense(m)
        instances = fullcro_instances(net, 64)
        assert len(instances) == 1

    def test_active_pins_only(self):
        m = np.zeros((4, 4), dtype=np.uint8)
        m[0, 1] = 1
        net = ConnectionMatrix.from_dense(m)
        (inst,) = fullcro_instances(net, 64)
        assert inst.rows == (0,)
        assert inst.cols == (1,)

    def test_rejects_bad_size(self, block_network):
        with pytest.raises(ValueError):
            fullcro_instances(block_network, 0)


class TestFullcroUtilization:
    def test_matches_mean(self, block_network):
        instances = fullcro_instances(block_network, 64)
        expected = float(np.mean([i.utilization for i in instances]))
        assert fullcro_utilization(block_network, 64) == pytest.approx(expected)

    def test_empty_network(self):
        net = ConnectionMatrix.from_dense(np.zeros((10, 10)))
        assert fullcro_utilization(net, 64) == 0.0

    def test_dense_small_network_high(self):
        m = np.ones((8, 8), dtype=np.uint8)
        np.fill_diagonal(m, 0)
        net = ConnectionMatrix.from_dense(m)
        assert fullcro_utilization(net, 8) == pytest.approx(56 / 64)


class TestFullcroMapping:
    def test_valid_and_complete(self, small_fullcro):
        small_fullcro.validate()
        assert small_fullcro.num_synapses == 0
        assert small_fullcro.clustered_connection_ratio == 1.0

    def test_netlist_built(self, small_fullcro):
        assert small_fullcro.netlist.num_cells >= small_fullcro.network.size

    def test_histogram_only_max(self, small_fullcro):
        histogram = small_fullcro.crossbar_size_histogram()
        assert set(histogram) == {64}

    def test_summary_fields(self, small_fullcro):
        summary = small_fullcro.summary()
        assert summary["design"] == "FullCro"
        assert summary["synapses"] == 0

    def test_custom_library(self):
        net = random_sparse_network(40, 0.1, rng=0)
        library = CrossbarLibrary(sizes=(8, 16))
        mapping = fullcro_mapping(net, library=library)
        assert all(inst.size == 16 for inst in mapping.instances)
