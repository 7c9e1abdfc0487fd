"""Tests for the analog crossbar / hybrid NCS simulators."""

import numpy as np
import pytest

from repro.clustering import iterative_spectral_clustering
from repro.hardware.simulation import (
    CrossbarSimulator,
    HybridNcsSimulator,
    NonIdealityModel,
)
from repro.mapping import autoncs_mapping, fullcro_utilization
from repro.networks import block_diagonal_network


class TestNonIdealityModel:
    def test_defaults_ideal(self):
        model = NonIdealityModel()
        assert model.variation_sigma == 0.0
        assert model.ir_drop_coefficient == 0.0

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            NonIdealityModel(stuck_off_probability=0.7, stuck_on_probability=0.7)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NonIdealityModel(variation_sigma=-0.1)


class TestCrossbarSimulator:
    def test_ideal_compute_matches_matrix_product(self, rng):
        weights = rng.random((8, 8))
        sim = CrossbarSimulator(weights, rng=rng)
        inputs = rng.random(8)
        np.testing.assert_allclose(sim.compute(inputs), inputs @ weights, atol=1e-2)

    def test_variation_adds_error(self, rng):
        weights = rng.random((16, 16))
        inputs = np.ones(16)
        noisy = CrossbarSimulator(
            weights, model=NonIdealityModel(variation_sigma=0.2), rng=0
        )
        error = noisy.relative_error(inputs, weights)
        assert error > 0.001

    def test_ir_drop_error_grows_with_size(self):
        model = NonIdealityModel(ir_drop_coefficient=0.005)
        rng = np.random.default_rng(0)
        errors = []
        for size in (16, 64, 128):
            weights = rng.random((size, size))
            sim = CrossbarSimulator(weights, model=model, rng=rng)
            errors.append(sim.relative_error(np.ones(size), weights))
        assert errors[0] < errors[1] < errors[2]

    def test_stuck_off_reduces_output(self, rng):
        weights = np.ones((16, 16))
        sim = CrossbarSimulator(
            weights, model=NonIdealityModel(stuck_off_probability=0.5), rng=0
        )
        outputs = sim.compute(np.ones(16))
        assert outputs.sum() < 0.9 * 16 * 16

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CrossbarSimulator(np.ones((2, 3)))

    def test_rejects_out_of_range_weights(self):
        with pytest.raises(ValueError):
            CrossbarSimulator(np.full((2, 2), 1.5))

    def test_rejects_bad_input_shape(self, rng):
        sim = CrossbarSimulator(rng.random((4, 4)), rng=rng)
        with pytest.raises(ValueError):
            sim.compute(np.ones(5))


class TestHybridNcsSimulator:
    @pytest.fixture(scope="class")
    def isc(self):
        net = block_diagonal_network([20, 16, 12], within_density=0.7,
                                     between_density=0.03, rng=5)
        threshold = fullcro_utilization(net, 64)
        return iterative_spectral_clustering(net, utilization_threshold=threshold, rng=0)

    @pytest.fixture(scope="class")
    def topology(self, isc):
        return autoncs_mapping(isc)

    def test_ideal_matches_binary_product(self, topology):
        sim = HybridNcsSimulator(topology, rng=0)
        x = np.random.default_rng(1).choice([-1.0, 1.0], topology.network.size)
        reference = x @ topology.network.matrix.astype(float)
        np.testing.assert_allclose(sim.compute(x), reference, atol=0.05)

    def test_signed_weights_supported(self, topology):
        n = topology.network.size
        rng = np.random.default_rng(2)
        signed = topology.network.matrix.astype(float) * rng.choice([-1.0, 1.0], (n, n))
        sim = HybridNcsSimulator(topology, signed_weights=signed, rng=0)
        x = rng.choice([-1.0, 1.0], n)
        np.testing.assert_allclose(sim.compute(x), x @ signed, atol=0.05)

    def test_recall_reaches_fixed_point(self, topology):
        sim = HybridNcsSimulator(topology, rng=0)
        x = np.random.default_rng(3).choice([-1.0, 1.0], topology.network.size)
        state = sim.recall(x, max_steps=30)
        assert set(np.unique(state)).issubset({-1, 1})

    def test_rejects_wrong_weight_shape(self, topology):
        with pytest.raises(ValueError):
            HybridNcsSimulator(topology, signed_weights=np.zeros((3, 3)))

    def test_rejects_non_mapping_topology(self, isc):
        # An ISC result is mapped first: the simulator reads one topology type.
        for topology in (isc, isc.crossbars, None):
            with pytest.raises(TypeError, match="MappingResult"):
                HybridNcsSimulator(topology)

    def test_rejects_wrong_input_shape(self, topology):
        sim = HybridNcsSimulator(topology, rng=0)
        with pytest.raises(ValueError):
            sim.compute(np.ones(7))

    def test_noise_perturbs_but_preserves_scale(self, topology):
        model = NonIdealityModel(variation_sigma=0.1)
        sim = HybridNcsSimulator(topology, model=model, rng=0)
        x = np.ones(topology.network.size)
        ideal = x @ topology.network.matrix.astype(float)
        noisy = sim.compute(x)
        assert not np.allclose(noisy, ideal)
        assert np.linalg.norm(noisy) == pytest.approx(np.linalg.norm(ideal), rel=0.3)
