"""Hybrid simulator fidelity: ideal hardware must reproduce y = W x exactly.

The differential (two-polarity) crossbar read cancels the G_off leak, so
with the default (ideal) NonIdealityModel the mapped hardware computes the
same product as the software network to floating-point precision — for all
three paper testbench topologies (small-N variants) and for every mapping
(AutoNCS, whose crossbars are ISC's own instances, and FullCro).
"""

import numpy as np
import pytest

from repro.clustering import iterative_spectral_clustering
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.hardware.simulation import HybridNcsSimulator
from repro.mapping import autoncs_mapping, fullcro_mapping, fullcro_utilization
from tests.crossbar_asserts import assert_same_pairs

#: (testbench index, scaled dimension) — small enough to keep the suite fast.
CASES = [(1, 60), (2, 64), (3, 80)]


def _instance_and_isc(index, dimension):
    instance = build_testbench(scaled_testbench(index, dimension), rng=index)
    threshold = fullcro_utilization(instance.network, 64)
    isc = iterative_spectral_clustering(
        instance.network, utilization_threshold=threshold, rng=index
    )
    return instance, isc


def _probe_inputs(n, rng):
    return [
        rng.choice([-1.0, 1.0], size=n),
        rng.random(n) * 2.0 - 1.0,
        np.zeros(n),
    ]


@pytest.mark.parametrize("index,dimension", CASES)
def test_isc_topology_is_exact(index, dimension):
    # The mapping hands the simulator ISC's crossbar objects themselves.
    instance, isc = _instance_and_isc(index, dimension)
    weights = instance.hopfield.weights
    mapping = autoncs_mapping(isc)
    assert len(mapping.instances) == len(isc.crossbars)
    assert all(a is b for a, b in zip(mapping.instances, isc.crossbars))
    assert_same_pairs(mapping.synapse_connections, isc.outliers)
    simulator = HybridNcsSimulator(mapping, signed_weights=weights)
    rng = np.random.default_rng(index)
    for x in _probe_inputs(instance.network.size, rng):
        np.testing.assert_allclose(simulator.compute(x), x @ weights,
                                   rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("index,dimension", CASES)
def test_autoncs_mapping_is_exact(index, dimension):
    instance, isc = _instance_and_isc(index, dimension)
    weights = instance.hopfield.weights
    mapping = autoncs_mapping(isc)
    simulator = HybridNcsSimulator(mapping, signed_weights=weights)
    rng = np.random.default_rng(index + 10)
    for x in _probe_inputs(instance.network.size, rng):
        np.testing.assert_allclose(simulator.compute(x), x @ weights,
                                   rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("index,dimension", CASES)
def test_fullcro_mapping_is_exact(index, dimension):
    # FullCro tiles have distinct row/column groups — the rows != cols path.
    instance, _ = _instance_and_isc(index, dimension)
    weights = instance.hopfield.weights
    mapping = fullcro_mapping(instance.network)
    simulator = HybridNcsSimulator(mapping, signed_weights=weights)
    rng = np.random.default_rng(index + 20)
    for x in _probe_inputs(instance.network.size, rng):
        np.testing.assert_allclose(simulator.compute(x), x @ weights,
                                   rtol=1e-9, atol=1e-9)


def test_binary_topology_default_weights():
    # With no signed_weights the simulator implements the 0/1 topology itself.
    instance, isc = _instance_and_isc(1, 60)
    simulator = HybridNcsSimulator(autoncs_mapping(isc))
    rng = np.random.default_rng(0)
    x = rng.random(instance.network.size)
    np.testing.assert_allclose(
        simulator.compute(x), x @ instance.network.matrix.astype(float),
        rtol=1e-9, atol=1e-9,
    )
