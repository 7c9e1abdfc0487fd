"""Tests for memristor, crossbar spec, synapse, neuron and library models."""

import re

import numpy as np
import pytest

from repro.hardware.crossbar import CrossbarInstance, CrossbarSpec, check_exact_cover
from repro.hardware.library import CrossbarLibrary
from repro.hardware.memristor import Memristor, weights_to_conductances
from repro.hardware.neuron import IntegrateFireNeuron
from repro.hardware.synapse import DiscreteSynapse
from repro.hardware.technology import DEFAULT_TECHNOLOGY
from repro.networks import ConnectionMatrix


class TestMemristor:
    def test_state_maps_to_conductance(self):
        device = Memristor(r_on=1e3, r_off=1e6, state=1.0)
        assert device.conductance == pytest.approx(1e-3)
        device.state = 0.0
        assert device.conductance == pytest.approx(1e-6)

    def test_resistance_reciprocal(self):
        device = Memristor(state=0.5)
        assert device.resistance == pytest.approx(1.0 / device.conductance)

    def test_program_weight_exact_without_noise(self):
        device = Memristor()
        stored = device.program_weight(0.7)
        assert stored == pytest.approx(0.7)

    def test_program_weight_noise_clipped(self):
        device = Memristor()
        stored = device.program_weight(0.9, variation_sigma=2.0, rng=0)
        assert 0.0 <= stored <= 1.0

    def test_read_current_ohmic(self):
        device = Memristor(state=1.0)
        assert device.read_current(0.5) == pytest.approx(0.5e-3)

    def test_rejects_r_on_above_r_off(self):
        with pytest.raises(ValueError):
            Memristor(r_on=1e6, r_off=1e3)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            Memristor().program_weight(1.5)


class TestWeightsToConductances:
    def test_deterministic_mapping(self):
        weights = np.array([[0.0, 1.0], [0.5, 0.25]])
        g = weights_to_conductances(weights)
        assert g[0, 0] == pytest.approx(1e-6)
        assert g[0, 1] == pytest.approx(1e-3)
        assert g[1, 0] == pytest.approx(1e-6 + 0.5 * (1e-3 - 1e-6))

    def test_noise_changes_values(self):
        weights = np.full((4, 4), 0.5)
        a = weights_to_conductances(weights, variation_sigma=0.1, rng=0)
        b = weights_to_conductances(weights)
        assert not np.allclose(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            weights_to_conductances(np.array([[2.0]]))


class TestCrossbarSpec:
    def test_from_technology(self):
        spec = CrossbarSpec.from_technology(32, DEFAULT_TECHNOLOGY)
        assert spec.size == 32
        assert spec.capacity == 1024
        assert spec.area_um2 == pytest.approx(DEFAULT_TECHNOLOGY.crossbar_area_um2(32))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CrossbarSpec(size=0, side_um=1, area_um2=1, delay_ns=1)
        with pytest.raises(ValueError):
            CrossbarSpec(size=4, side_um=0, area_um2=1, delay_ns=1)


class TestCheckExactCover:
    """Crossbar connections plus synapses must be the network's edges, once each."""

    NETWORK = ConnectionMatrix.from_edges(5, [(0, 1), (1, 0), (1, 2), (3, 4), (4, 3)])

    @staticmethod
    def crossbar(*connections):
        return CrossbarInstance(rows=(0, 1, 2), cols=(0, 1, 2), size=4, connections=connections)

    def check(self, instances, synapses):
        check_exact_cover(instances, synapses, self.NETWORK)

    def test_accepts_exact_cover(self):
        self.check([self.crossbar((0, 1), (1, 0), (1, 2))], [(3, 4), (4, 3)])
        self.check([], [(4, 3), (3, 4), (1, 2), (1, 0), (0, 1)])

    def test_names_pair_implemented_twice(self):
        doubled = self.crossbar((0, 1), (1, 0), (1, 2))
        object.__setattr__(doubled, "connections", np.vstack([doubled.connections, [(1, 0)]]))
        with pytest.raises(AssertionError, match=r"connection \(1, 0\) implemented twice"):
            self.check([doubled], [(3, 4), (4, 3)])
        with pytest.raises(AssertionError, match=r"connection \(1, 2\) implemented twice"):
            self.check([self.crossbar((1, 2)), self.crossbar((0, 1), (1, 0), (1, 2))],
                       [(3, 4), (4, 3)])
        with pytest.raises(AssertionError, match=r"connection \(0, 1\) implemented twice"):
            self.check([self.crossbar((0, 1), (1, 0), (1, 2))], [(3, 4), (4, 3), (0, 1)])

    def test_names_missing_pair(self):
        with pytest.raises(AssertionError, match=r"connection \(3, 4\) is not implemented"):
            self.check([self.crossbar((0, 1), (1, 0), (1, 2))], [(4, 3)])

    def test_names_phantom_pair(self):
        for phantom in [(2, 1), (3, 5), (-1, 0)]:
            with pytest.raises(AssertionError, match=re.escape(f"connection {phantom} is not in")):
                self.check([self.crossbar((0, 1), (1, 0), (1, 2))], [(3, 4), (4, 3), phantom])


class TestSynapseAndNeuron:
    def test_synapse_from_technology(self):
        synapse = DiscreteSynapse.from_technology(DEFAULT_TECHNOLOGY)
        assert synapse.area_um2 == DEFAULT_TECHNOLOGY.synapse_area_um2
        assert synapse.side_um == pytest.approx(np.sqrt(synapse.area_um2))

    def test_neuron_integrates_and_fires(self):
        neuron = IntegrateFireNeuron(capacitance_ff=50.0, threshold_v=0.5)
        fired = neuron.integrate(current_na=10_000.0, dt_ns=1.0)
        # dV = 1e-5 A * 1e-9 s / 50e-15 F = 0.2 V
        assert not fired
        assert neuron.voltage == pytest.approx(0.2)
        assert not neuron.integrate(10_000.0, 1.0)
        assert neuron.integrate(10_000.0, 1.0)  # crosses 0.5 -> fires
        assert neuron.voltage == 0.0

    def test_neuron_reset(self):
        neuron = IntegrateFireNeuron()
        neuron.integrate(5.0, 1.0)
        neuron.reset()
        assert neuron.voltage == 0.0

    def test_neuron_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            IntegrateFireNeuron().integrate(1.0, 0.0)


class TestCrossbarLibrary:
    def test_paper_default_sizes(self):
        library = CrossbarLibrary()
        assert library.sizes == tuple(range(16, 65, 4))
        assert library.max_size == 64

    def test_spec_lookup(self):
        library = CrossbarLibrary()
        assert library.spec(24).size == 24
        with pytest.raises(KeyError):
            library.spec(25)

    def test_contains_iter_len(self):
        library = CrossbarLibrary(sizes=(16, 32))
        assert 16 in library and 17 not in library
        assert len(library) == 2
        assert [spec.size for spec in library] == [16, 32]

    def test_deduplicates_sizes(self):
        library = CrossbarLibrary(sizes=(16, 16, 32))
        assert library.sizes == (16, 32)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="sizes"):
            CrossbarLibrary(sizes=())

    def test_rejects_fractional_or_nan_sizes(self):
        # (16.7, 63.9) used to truncate to (16, 63); NaN failed unnamed.
        for sizes in ((16, 63.9), (16, float("nan")), (16, -4)):
            with pytest.raises(ValueError, match=r"sizes\[1\] must be a whole number"):
                CrossbarLibrary(sizes=sizes)

    def test_specs_follow_technology(self):
        library = CrossbarLibrary()
        for spec in library:
            assert spec.delay_ns == pytest.approx(
                DEFAULT_TECHNOLOGY.crossbar_delay_ns(spec.size)
            )
