"""Physical cost evaluation: ``Cost = α·L + β·A + δ·T`` (paper eq. (3)).

* ``L`` — total routed wirelength (µm);
* ``A`` — chip (placement bounding-box) area (µm²);
* ``T`` — average wire delay (ns): each wire's delay is the intrinsic delay
  of its slower endpoint cell (the crossbar or discrete synapse driving the
  path; neurons contribute none) plus the Elmore RC delay of the routed
  wire.  This reproduces the paper's observation that FullCro's delay is
  pinned by the 64×64 crossbar delay (1.95 ns) across all testbenches while
  AutoNCS's delay tracks its crossbar size distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.mapping.netlist import Netlist
from repro.physical.layout import Placement
from repro.physical.routing.router import RoutingResult


@dataclass(frozen=True)
class CostWeights:
    """The user-defined α, β, δ of eq. (3) (the paper sets all three to 1)."""

    alpha: float = 1.0
    beta: float = 1.0
    delta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "delta"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class PhysicalCost:
    """Evaluated physical metrics of one design."""

    wirelength_um: float
    area_um2: float
    average_delay_ns: float
    weights: CostWeights = CostWeights()

    @property
    def total(self) -> float:
        """``α·L + β·A + δ·T`` (mixed units, per the paper)."""
        return (
            self.weights.alpha * self.wirelength_um
            + self.weights.beta * self.area_um2
            + self.weights.delta * self.average_delay_ns
        )


def wire_delays_ns(
    netlist: Netlist,
    routing: RoutingResult,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> np.ndarray:
    """Per-wire delay: slower endpoint's intrinsic delay + routed-wire RC."""
    lengths = routing.lengths
    if lengths.shape[0] != netlist.num_wires:
        raise ValueError(
            f"routing covers {lengths.shape[0]} wires, netlist has {netlist.num_wires}"
        )
    intrinsic = np.maximum(netlist.delays_ns[netlist.sources], netlist.delays_ns[netlist.targets])
    return intrinsic + technology.wire_delay_ns(lengths)


@dataclass(frozen=True)
class DelayStatistics:
    """Distributional view of wire delays (extension beyond the paper's T)."""

    mean_ns: float
    median_ns: float
    p95_ns: float
    max_ns: float

    def as_dict(self) -> dict:
        """Dictionary view for reports."""
        return {
            "mean_ns": self.mean_ns,
            "median_ns": self.median_ns,
            "p95_ns": self.p95_ns,
            "max_ns": self.max_ns,
        }


def delay_statistics(
    netlist: Netlist,
    routing: RoutingResult,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> DelayStatistics:
    """Mean / median / p95 / max wire delay — the critical-path view.

    The paper reports only the average ``T``; the maximum is the design's
    critical wire (the slowest crossbar plus its longest route).
    """
    delays = wire_delays_ns(netlist, routing, technology)
    if delays.size == 0:
        return DelayStatistics(0.0, 0.0, 0.0, 0.0)
    return DelayStatistics(
        mean_ns=float(delays.mean()),
        median_ns=float(np.median(delays)),
        p95_ns=float(np.percentile(delays, 95)),
        max_ns=float(delays.max()),
    )


def evaluate_cost(
    netlist: Netlist,
    placement: Placement,
    routing: RoutingResult,
    technology: Technology = DEFAULT_TECHNOLOGY,
    weights: CostWeights = CostWeights(),
) -> PhysicalCost:
    """Evaluate eq. (3) for a placed-and-routed design."""
    wirelength = routing.total_wirelength_um
    area = placement.area
    delays = wire_delays_ns(netlist, routing, technology)
    average_delay = float(delays.mean()) if delays.size else 0.0
    return PhysicalCost(
        wirelength_um=wirelength,
        area_um2=area,
        average_delay_ns=average_delay,
        weights=weights,
    )
