"""Failure-injection and stress tests across subsystems.

These verify graceful behaviour at the edges: saturated routing grids,
degenerate networks, hostile clustering inputs, and overloaded Hopfield
storage.
"""

import numpy as np
import pytest

import repro.core.autoncs as autoncs_module
from repro.clustering import (
    greedy_cluster_size_prediction,
    iterative_spectral_clustering,
)
from repro.core import AutoNCS, StageError
from repro.core.config import fast_config
from repro.hardware.simulation import CrossbarSimulator, NonIdealityModel
from repro.hardware.technology import Technology
from repro.mapping import autoncs_mapping, fullcro_mapping
from repro.networks import ConnectionMatrix, random_sparse_network
from repro.networks.hopfield import HopfieldNetwork, recognition_rate
from repro.networks.patterns import qr_like_patterns
from repro.physical.layout import Placement
from repro.physical.routing.router import RoutingConfig, route
from repro.reliability import repair_mapping, sample_defect_map


class TestRoutingUnderStress:
    def test_capacity_one_still_routes_everything(self):
        net = random_sparse_network(30, 0.15, rng=0)
        mapping = fullcro_mapping(net)
        netlist = mapping.netlist
        rng = np.random.default_rng(1)
        placement = Placement(
            x=rng.random(netlist.num_cells) * 30,  # tiny region -> congestion
            y=rng.random(netlist.num_cells) * 30,
            widths=netlist.widths,
            heights=netlist.heights,
        )
        technology = Technology(routing_capacity_per_bin=1)
        config = RoutingConfig(max_relax_rounds=2)
        result = route(netlist, placement, technology=technology, config=config)
        assert len(result.wires) == netlist.num_wires  # never-fail guarantee
        # congestion is reported, not hidden
        assert result.grid.max_congestion() >= 1.0

    def test_all_cells_in_one_bin(self):
        net = random_sparse_network(12, 0.3, rng=2)
        mapping = fullcro_mapping(net)
        netlist = mapping.netlist
        placement = Placement(
            x=np.full(netlist.num_cells, 5.0),
            y=np.full(netlist.num_cells, 5.0),
            widths=netlist.widths,
            heights=netlist.heights,
        )
        result = route(netlist, placement, technology=Technology(routing_bin_um=50.0))
        # every wire is intra-bin: zero routed grid length
        assert result.total_wirelength_um == pytest.approx(0.0)


class TestClusteringDegenerateInputs:
    def test_fully_connected_network(self):
        m = np.ones((20, 20), dtype=np.uint8)
        np.fill_diagonal(m, 0)
        net = ConnectionMatrix.from_dense(m)
        result = greedy_cluster_size_prediction(net, 8, rng=0)
        assert result.max_size() <= 8

    def test_single_neuron(self):
        net = ConnectionMatrix.from_dense(np.zeros((1, 1)))
        result = greedy_cluster_size_prediction(net, 4, rng=0)
        assert result.k == 1

    def test_two_neuron_ring(self):
        net = ConnectionMatrix.from_dense(np.array([[0, 1], [1, 0]]))
        isc = iterative_spectral_clustering(net, utilization_threshold=0.0,
                                            max_iterations=3, rng=0)
        isc.validate()

    def test_star_network(self):
        # one hub connected to everything: resists clean partitioning
        n = 40
        m = np.zeros((n, n), dtype=np.uint8)
        m[0, 1:] = 1
        m[1:, 0] = 1
        net = ConnectionMatrix.from_dense(m)
        isc = iterative_spectral_clustering(net, utilization_threshold=0.001,
                                            max_iterations=10, rng=0)
        isc.validate()

    def test_disconnected_components(self):
        m = np.zeros((30, 30), dtype=np.uint8)
        m[:10, :10] = 1
        m[20:, 20:] = 1
        np.fill_diagonal(m, 0)
        net = ConnectionMatrix.from_dense(m)
        result = greedy_cluster_size_prediction(net, 12, rng=0)
        assert result.max_size() <= 12


class TestHopfieldOverload:
    def test_over_capacity_degrades_not_crashes(self):
        # 40 patterns in 60 neurons: way past Hopfield capacity
        patterns = qr_like_patterns(40, 60, rng=0)
        network = HopfieldNetwork.train(patterns)
        rate = recognition_rate(network, trials_per_pattern=1, rng=0)
        assert 0.0 <= rate <= 1.0  # degraded recall, defined behaviour

    def test_extreme_sparsity_keeps_symmetry(self):
        patterns = qr_like_patterns(5, 100, rng=1)
        sparse = HopfieldNetwork.train(patterns).sparsify(0.995)
        assert np.allclose(sparse.weights, sparse.weights.T)
        assert sparse.sparsity >= 0.99


class TestAnalogWorstCase:
    def test_all_devices_stuck_off(self):
        sim = CrossbarSimulator(
            np.ones((8, 8)),
            model=NonIdealityModel(stuck_off_probability=1.0),
            rng=0,
        )
        outputs = sim.compute(np.ones(8))
        # only the off-leakage remains
        assert np.all(outputs < 0.01 * 8)

    def test_extreme_ir_drop_attenuates_far_corner(self):
        model = NonIdealityModel(ir_drop_coefficient=1.0)
        sim = CrossbarSimulator(np.ones((16, 16)), model=model, rng=0)
        near = np.zeros(16)
        near[0] = 1.0
        far = np.zeros(16)
        far[15] = 1.0
        near_out = sim.compute(near)
        far_out = sim.compute(far)
        assert far_out[15] < near_out[0]


class TestMappingConsistencyUnderStress:
    def test_dense_network_maps_completely(self):
        m = np.ones((70, 70), dtype=np.uint8)
        np.fill_diagonal(m, 0)
        net = ConnectionMatrix.from_dense(m)
        isc = iterative_spectral_clustering(net, utilization_threshold=0.01,
                                            max_iterations=20, rng=0)
        mapping = autoncs_mapping(isc)
        mapping.validate()

    def test_empty_network_maps_to_nothing(self):
        net = ConnectionMatrix.from_dense(np.zeros((25, 25)))
        isc = iterative_spectral_clustering(net, utilization_threshold=0.01, rng=0)
        mapping = autoncs_mapping(isc)
        assert mapping.num_crossbars == 0
        assert mapping.num_synapses == 0
        # neurons still exist as cells
        assert mapping.netlist.num_cells == 25


class TestRepairWorstCase:
    def test_every_cell_dead_demotes_every_cluster(self):
        # 100 % stuck-off cells and no spares: rebinding cannot help, so the
        # repair pass must demote every cluster to discrete synapses and
        # still produce a valid (crossbar-free) mapping.
        net = random_sparse_network(50, 0.1, rng=4)
        isc = iterative_spectral_clustering(net, utilization_threshold=0.2, rng=4)
        mapping = autoncs_mapping(isc)
        assert mapping.num_crossbars > 0
        defect_map = sample_defect_map(mapping, 1.0, rng=4)
        repaired, report = repair_mapping(mapping, defect_map)
        repaired.validate()
        assert repaired.num_crossbars == 0
        assert report.clusters_demoted == mapping.num_crossbars
        assert repaired.num_synapses == net.num_connections


class TestPipelineStageFailure:
    def test_dead_placers_raise_stage_error_naming_placement(self, monkeypatch):
        # The placer runs once; when it raises, the flow surfaces a
        # StageError carrying the failing stage name and the mapping.
        def broken(netlist, **kwargs):
            raise RuntimeError("synthetic placement failure")

        monkeypatch.setattr(autoncs_module, "place", broken)
        net = random_sparse_network(40, 0.1, rng=6)
        with pytest.raises(StageError, match="synthetic placement failure") as excinfo:
            AutoNCS(fast_config()).run(net, rng=6)
        assert excinfo.value.stage == "placement"
        assert set(excinfo.value.partial) == {"mapping"}
