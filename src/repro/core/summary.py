"""Full-design text reports: everything about one implemented design.

Aggregates the mapping statistics, the physical metrics (eq. 3), the delay
distribution, and the energy model into a single readable block — the
"datasheet" of an implemented NCS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.energy import EnergyParameters, EnergyReport, evaluate_energy
from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.physical.cost import DelayStatistics, delay_statistics
from repro.physical.layout import PhysicalDesign


@dataclass
class DesignSummary:
    """All evaluated facets of one physical design."""

    design: PhysicalDesign
    delays: DelayStatistics
    energy: EnergyReport

    def format(self) -> str:
        """Render the summary as an aligned text block."""
        mapping = self.design.mapping
        cost = self.design.cost
        placement = self.design.placement
        routing = self.design.routing
        histogram = ", ".join(
            f"{s}x{s}:{c}" for s, c in mapping.crossbar_size_histogram().items()
        )
        lines = [
            f"design            : {self.design.name}",
            f"network           : {mapping.network.size} neurons, "
            f"{mapping.network.num_connections} connections "
            f"(sparsity {mapping.network.sparsity:.2%})",
            "-- mapping --",
            f"crossbars         : {mapping.num_crossbars} [{histogram}]",
            f"discrete synapses : {mapping.num_synapses}",
            f"avg utilization   : {mapping.average_utilization:.3f}",
            f"clustered ratio   : {mapping.clustered_connection_ratio:.1%}",
            f"avg fanin+fanout  : {mapping.fanin_fanout().average_total:.2f} wires/neuron",
            "-- physical (eq. 3) --",
            f"wirelength L      : {cost.wirelength_um:,.1f} um",
            f"area A            : {cost.area_um2:,.1f} um^2 "
            f"(bbox of {placement.num_cells} cells)",
            f"avg wire delay T  : {cost.average_delay_ns:.3f} ns",
            f"composite cost    : {cost.total:,.1f}",
            f"delay distribution: median {self.delays.median_ns:.3f}, "
            f"p95 {self.delays.p95_ns:.3f}, max {self.delays.max_ns:.3f} ns",
            f"routing           : {len(routing.paths)} wires, "
            f"{routing.relax_rounds} relax rounds, "
            f"{routing.overflow_wires} overflowed, "
            f"peak congestion {routing.grid.max_congestion():.2f}",
            "-- energy --",
            f"read energy       : {self.energy.read_energy_pj:,.2f} pJ/pass "
            f"(+ {self.energy.wire_energy_pj:.3f} pJ interconnect)",
            f"programming       : {self.energy.programming_energy_pj:,.1f} pJ "
            f"in {self.energy.programming_time_us:,.1f} us",
            f"devices           : {self.energy.utilized_devices} utilized, "
            f"{self.energy.idle_devices} idle",
        ]
        return "\n".join(lines)


def summarize_design(
    design: PhysicalDesign,
    technology: Technology = DEFAULT_TECHNOLOGY,
    energy_parameters: Optional[EnergyParameters] = None,
) -> DesignSummary:
    """Evaluate the delay distribution and energy model for a design."""
    netlist = design.mapping.netlist
    delays = delay_statistics(netlist, design.routing, technology)
    energy = evaluate_energy(
        design.mapping,
        routed_wirelength_um=design.cost.wirelength_um,
        technology=technology,
        parameters=energy_parameters if energy_parameters is not None else EnergyParameters(),
    )
    return DesignSummary(design=design, delays=delays, energy=energy)
