"""Tests for delay statistics and cost extensions."""

import numpy as np
import pytest

from repro.hardware.library import CrossbarLibrary
from repro.mapping.netlist import CrossbarInstance, build_netlist
from repro.physical.cost import delay_statistics
from repro.physical.layout import Placement
from repro.physical.routing.router import route


@pytest.fixture(scope="module")
def routed_design():
    library = CrossbarLibrary()
    instances = [
        CrossbarInstance(rows=(0, 1), cols=(0, 1), size=16, connections=((0, 1),)),
        CrossbarInstance(rows=(2, 3), cols=(2, 3), size=64, connections=((2, 3),)),
    ]
    netlist = build_netlist(4, instances, [(1, 2)], library)
    rng = np.random.default_rng(0)
    placement = Placement(
        x=rng.random(netlist.num_cells) * 80,
        y=rng.random(netlist.num_cells) * 80,
        widths=netlist.widths,
        heights=netlist.heights,
    )
    routing = route(netlist, placement)
    return netlist, routing


class TestDelayStatistics:
    def test_ordering(self, routed_design):
        netlist, routing = routed_design
        stats = delay_statistics(netlist, routing)
        assert stats.mean_ns <= stats.max_ns
        assert stats.median_ns <= stats.p95_ns <= stats.max_ns

    def test_max_dominated_by_biggest_crossbar(self, routed_design):
        netlist, routing = routed_design
        stats = delay_statistics(netlist, routing)
        library = CrossbarLibrary()
        assert stats.max_ns >= library.spec(64).delay_ns

    def test_as_dict(self, routed_design):
        netlist, routing = routed_design
        d = delay_statistics(netlist, routing).as_dict()
        assert set(d) == {"mean_ns", "median_ns", "p95_ns", "max_ns"}

    def test_empty_netlist(self):
        from repro.mapping.netlist import Netlist
        from repro.physical.routing.router import RoutingResult
        from repro.physical.routing.grid import RoutingGrid

        netlist = Netlist(
            kinds=[], widths=[], heights=[], delays_ns=[], sources=[], targets=[], weights=[]
        )
        grid = RoutingGrid((0, 0), 10, 10, 2, 4)
        routing = RoutingResult(
            paths=[], lengths=np.zeros(0), overflowed=np.zeros(0, dtype=bool), grid=grid
        )
        stats = delay_statistics(netlist, routing)
        assert stats.max_ns == 0.0


class TestIscClustererPlugin:
    def test_modularity_clusterer_in_isc(self, block_network):
        from repro.clustering import iterative_spectral_clustering
        from repro.clustering.modularity import modularity_clustering

        isc = iterative_spectral_clustering(
            block_network,
            utilization_threshold=0.01,
            clusterer=modularity_clustering,
            max_iterations=5,
            rng=0,
        )
        isc.validate()
        assert isc.iterations >= 1
