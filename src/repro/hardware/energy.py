"""Energy and programming-cost models (extension).

The paper motivates memristors with their "low programming energy, small
footprint, and non-volatility" (Sec. 1) but evaluates only wirelength /
area / delay.  This module quantifies the energy side so designs can also
be compared on:

* **read (inference) energy** — one evaluation pass: every device on a
  crossbar sees the read voltage whether utilized or not (the crossbar's
  blessing and curse), while a discrete synapse only burns its own device;
* **programming time and energy** — writing the weights: crossbars program
  row-by-row (one row pulse programs the selected cells of that row),
  discrete synapses program individually;
* **wire switching energy** — ``½ C V²`` over the routed interconnect.

AutoNCS's higher utilization means fewer idle devices biased at read
voltage, so it wins on read energy — the energy analogue of the paper's
area argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.mapping.netlist import MappingResult


@dataclass(frozen=True)
class EnergyParameters:
    """Electrical parameters of the energy model.

    Attributes
    ----------
    read_voltage_v / write_voltage_v:
        Bias levels for inference and programming.
    read_pulse_ns / write_pulse_ns:
        Pulse widths per read evaluation / programming pulse.
    on_conductance_s / off_conductance_s:
        Device conductance bounds (defaults match
        :class:`~repro.hardware.memristor.Memristor`).
    utilized_on_fraction:
        Average fraction of utilized devices programmed toward ON — sets
        the mean conductance of active cells.
    """

    read_voltage_v: float = 0.3
    write_voltage_v: float = 1.5
    read_pulse_ns: float = 5.0
    write_pulse_ns: float = 50.0
    on_conductance_s: float = 1e-3
    off_conductance_s: float = 1e-6
    utilized_on_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "read_voltage_v",
            "write_voltage_v",
            "read_pulse_ns",
            "write_pulse_ns",
            "on_conductance_s",
            "off_conductance_s",
        ):
            check_positive(name, getattr(self, name))
        if not 0.0 < self.utilized_on_fraction <= 1.0:
            raise ValueError("utilized_on_fraction must lie in (0, 1]")
        if self.off_conductance_s >= self.on_conductance_s:
            raise ValueError("off conductance must be below on conductance")


DEFAULT_ENERGY = EnergyParameters()


@dataclass(frozen=True)
class EnergyReport:
    """Per-design energy/programming summary."""

    read_energy_pj: float
    programming_energy_pj: float
    programming_time_us: float
    wire_energy_pj: float
    utilized_devices: int
    idle_devices: int

    @property
    def total_read_energy_pj(self) -> float:
        """Read plus wire energy of one evaluation pass."""
        return self.read_energy_pj + self.wire_energy_pj


def _device_counts(mapping: MappingResult) -> tuple:
    utilized = sum(inst.utilized_connections for inst in mapping.instances)
    provisioned = sum(inst.size * inst.size for inst in mapping.instances)
    utilized += mapping.num_synapses
    provisioned += mapping.num_synapses
    return utilized, provisioned - utilized


def evaluate_energy(
    mapping: MappingResult,
    routed_wirelength_um: float = 0.0,
    technology: Technology = DEFAULT_TECHNOLOGY,
    parameters: EnergyParameters = DEFAULT_ENERGY,
) -> EnergyReport:
    """Evaluate read/programming energy for a mapped design.

    Parameters
    ----------
    routed_wirelength_um:
        Total routed wirelength (pass the routing result's total to include
        interconnect switching energy; 0 skips the wire term).
    """
    if routed_wirelength_um < 0:
        raise ValueError("routed_wirelength_um must be >= 0")
    utilized, idle = _device_counts(mapping)
    active_conductance = (
        parameters.utilized_on_fraction * parameters.on_conductance_s
        + (1.0 - parameters.utilized_on_fraction) * parameters.off_conductance_s
    )
    v_read_sq = parameters.read_voltage_v**2
    read_seconds = parameters.read_pulse_ns * 1e-9
    # Idle devices still sit on biased lines at G_off.
    read_energy_j = v_read_sq * read_seconds * (
        utilized * active_conductance + idle * parameters.off_conductance_s
    )

    # Programming: each utilized device takes one write pulse at the write
    # voltage through (on average) half-swing conductance.
    v_write_sq = parameters.write_voltage_v**2
    write_seconds = parameters.write_pulse_ns * 1e-9
    programming_energy_j = (
        v_write_sq * write_seconds * utilized * active_conductance
    )
    # Crossbars program row-by-row (selected cells of a row share a pulse);
    # discrete synapses each need their own pulse.
    row_pulses = sum(np.unique(inst.connections[:, 0]).size for inst in mapping.instances)
    pulses = row_pulses + mapping.num_synapses
    programming_time_us = pulses * parameters.write_pulse_ns * 1e-3

    wire_capacitance_f = (
        routed_wirelength_um * technology.wire_capacitance_ff_per_um * 1e-15
    )
    wire_energy_j = 0.5 * wire_capacitance_f * v_read_sq

    return EnergyReport(
        read_energy_pj=read_energy_j * 1e12,
        programming_energy_pj=programming_energy_j * 1e12,
        programming_time_us=programming_time_us,
        wire_energy_pj=wire_energy_j * 1e12,
        utilized_devices=utilized,
        idle_devices=idle,
    )
