"""Mapping a clustered network onto hardware cells and wires.

* :mod:`~repro.mapping.netlist` — the netlist (per-cell kind codes,
  footprints and delays; per-wire endpoints and weights, all arrays) of
  crossbars, neurons and discrete synapses, and its builder shared by both
  designs.
* :mod:`~repro.mapping.fullcro` — the paper's brute-force baseline: only
  maximum-size crossbars (Sec. 4.2).
* :mod:`~repro.mapping.autoncs_mapping` — the hybrid AutoNCS mapping
  produced from an ISC result.
"""

from repro.mapping.autoncs_mapping import autoncs_mapping
from repro.mapping.fullcro import fullcro_mapping, fullcro_utilization
from repro.mapping.netlist import (
    CellKind,
    CrossbarInstance,
    FaninFanoutBreakdown,
    MappingResult,
    Netlist,
    build_netlist,
    fanin_fanout_breakdown,
)

__all__ = [
    "CellKind",
    "CrossbarInstance",
    "FaninFanoutBreakdown",
    "MappingResult",
    "Netlist",
    "autoncs_mapping",
    "build_netlist",
    "fanin_fanout_breakdown",
    "fullcro_mapping",
    "fullcro_utilization",
]
