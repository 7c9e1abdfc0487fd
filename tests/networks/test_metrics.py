"""Tests for network metrics."""

import numpy as np
import pytest

from repro.networks import ConnectionMatrix
from repro.networks.metrics import degree_statistics, fanin_fanout, network_sparsity


@pytest.fixture()
def net():
    return ConnectionMatrix.from_dense(
        np.array(
            [
                [0, 1, 1],
                [0, 0, 0],
                [1, 0, 0],
            ]
        )
    )


class TestFaninFanout:
    def test_values(self, net):
        # neuron 0: fanout 2 (0->1, 0->2), fanin 1 (2->0) => 3
        # neuron 1: fanout 0, fanin 1 => 1
        # neuron 2: fanout 1, fanin 1 => 2
        np.testing.assert_array_equal(fanin_fanout(net), [3, 1, 2])

    def test_total_equals_twice_connections(self, net):
        assert fanin_fanout(net).sum() == 2 * net.num_connections


class TestDegreeStatistics:
    def test_means(self, net):
        stats = degree_statistics(net)
        assert stats.mean_fanout == pytest.approx(1.0)
        assert stats.mean_fanin == pytest.approx(1.0)
        assert stats.mean_fanin_fanout == pytest.approx(2.0)

    def test_extremes(self, net):
        stats = degree_statistics(net)
        assert stats.max_fanin_fanout == 3
        assert stats.min_fanin_fanout == 1

    def test_isolated(self):
        net = ConnectionMatrix.from_dense(np.zeros((4, 4)))
        stats = degree_statistics(net)
        assert stats.isolated_neurons == 4
        assert stats.mean_fanin_fanout == 0.0

    def test_as_dict_keys(self, net):
        d = degree_statistics(net).as_dict()
        assert set(d) == {
            "mean_fanin",
            "mean_fanout",
            "mean_fanin_fanout",
            "max_fanin_fanout",
            "min_fanin_fanout",
            "isolated_neurons",
        }


def test_network_sparsity_matches_property(net):
    assert network_sparsity(net) == net.sparsity
