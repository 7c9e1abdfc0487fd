"""Tests for the technology parameter model."""

import pytest

from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology


class TestDefaults:
    def test_delay_calibration(self):
        # FullCro's constant delay in Table 1: delay(64) ~ 1.95 ns.
        assert DEFAULT_TECHNOLOGY.crossbar_delay_ns(64) == pytest.approx(1.95, abs=0.01)

    def test_delay_monotone_in_size(self):
        tech = DEFAULT_TECHNOLOGY
        delays = [tech.crossbar_delay_ns(s) for s in range(16, 65, 4)]
        assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_area_monotone_in_size(self):
        tech = DEFAULT_TECHNOLOGY
        areas = [tech.crossbar_area_um2(s) for s in (16, 32, 64)]
        assert areas[0] < areas[1] < areas[2]

    def test_side_includes_margin(self):
        tech = DEFAULT_TECHNOLOGY
        assert tech.crossbar_side_um(64) == pytest.approx(
            64 * tech.memristor_pitch_um + 2 * tech.crossbar_margin_um
        )

    def test_wire_delay_quadratic(self):
        tech = DEFAULT_TECHNOLOGY
        assert tech.wire_delay_ns(200.0) == pytest.approx(4 * tech.wire_delay_ns(100.0))

    def test_wire_delay_zero_length(self):
        assert DEFAULT_TECHNOLOGY.wire_delay_ns(0.0) == 0.0

    def test_wire_delay_small_vs_crossbar(self):
        # Wire RC must be a minor term next to crossbar delay (the paper's
        # delay is pinned by the crossbar size distribution).
        tech = DEFAULT_TECHNOLOGY
        assert tech.wire_delay_ns(100.0) < 0.05 * tech.crossbar_delay_ns(64)


class TestValidation:
    def test_rejects_negative_pitch(self):
        with pytest.raises(ValueError):
            Technology(memristor_pitch_um=-1.0)

    def test_rejects_small_routing_factor(self):
        with pytest.raises(ValueError):
            Technology(routing_space_factor=0.5)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_rejects_non_finite_routing_factor(self, factor):
        with pytest.raises(ValueError, match="routing_space_factor"):
            Technology(routing_space_factor=factor)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Technology(routing_capacity_per_bin=0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 2.5])
    def test_rejects_fractional_or_nan_capacity(self, capacity):
        with pytest.raises(ValueError, match="routing_capacity_per_bin"):
            Technology(routing_capacity_per_bin=capacity)

    def test_delay_rejects_bad_size(self):
        with pytest.raises(ValueError):
            DEFAULT_TECHNOLOGY.crossbar_delay_ns(0)

    def test_wire_delay_rejects_negative(self):
        with pytest.raises(ValueError):
            DEFAULT_TECHNOLOGY.wire_delay_ns(-1.0)


class TestScaling:
    def test_scaled_areas_quadratic(self):
        scaled = DEFAULT_TECHNOLOGY.scaled(22.5)  # half the node
        assert scaled.neuron_area_um2 == pytest.approx(
            DEFAULT_TECHNOLOGY.neuron_area_um2 / 4
        )

    def test_scaled_pitch_linear(self):
        scaled = DEFAULT_TECHNOLOGY.scaled(90.0)
        assert scaled.memristor_pitch_um == pytest.approx(
            DEFAULT_TECHNOLOGY.memristor_pitch_um * 2
        )

    def test_scaled_keeps_delays(self):
        scaled = DEFAULT_TECHNOLOGY.scaled(22.5)
        assert scaled.crossbar_delay_ns(64) == DEFAULT_TECHNOLOGY.crossbar_delay_ns(64)

    def test_identity_scaling(self):
        scaled = DEFAULT_TECHNOLOGY.scaled(45.0)
        assert scaled.memristor_pitch_um == DEFAULT_TECHNOLOGY.memristor_pitch_um
