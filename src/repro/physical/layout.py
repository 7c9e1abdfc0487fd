"""Layout containers: placements and complete physical designs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


@dataclass
class Placement:
    """Cell positions plus physical dimensions.

    ``x``/``y`` are *center* coordinates in µm; ``widths``/``heights`` are
    the physical cell dimensions (the placer's routing-space factor ω is
    applied internally during optimization, not stored here).
    """

    x: np.ndarray
    y: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.widths = np.asarray(self.widths, dtype=float)
        self.heights = np.asarray(self.heights, dtype=float)
        n = self.x.shape[0]
        for name, arr in (("y", self.y), ("widths", self.widths), ("heights", self.heights)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if np.any(self.widths <= 0) or np.any(self.heights <= 0):
            raise ValueError("cell dimensions must be positive")

    @property
    def num_cells(self) -> int:
        """Number of placed cells."""
        return self.x.shape[0]

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` over all cell extents."""
        if self.num_cells == 0:
            return (0.0, 0.0, 0.0, 0.0)
        half_w = self.widths / 2.0
        half_h = self.heights / 2.0
        return (
            float(np.min(self.x - half_w)),
            float(np.min(self.y - half_h)),
            float(np.max(self.x + half_w)),
            float(np.max(self.y + half_h)),
        )

    @property
    def area(self) -> float:
        """Placement (chip) area: the bounding-box area in µm²."""
        xmin, ymin, xmax, ymax = self.bounding_box()
        return (xmax - xmin) * (ymax - ymin)

    def total_overlap_area(self, scale: float = 1.0) -> float:
        """Sum of pairwise rectangle-overlap areas (µm²).

        ``scale`` inflates cell dimensions (pass the routing-space factor ω
        to measure overlap of the virtual footprints the placer legalizes).
        """
        from repro.physical.placement.density import true_overlap

        if self.num_cells < 2:
            return 0.0
        return true_overlap(self.x, self.y, self.widths * scale, self.heights * scale)

    def overlap_ratio(self, scale: float = 1.0) -> float:
        """Total overlap area relative to total cell area."""
        total = float(np.sum(self.widths * self.heights)) * scale * scale
        if total == 0.0:
            return 0.0
        return self.total_overlap_area(scale) / total

    def hpwl(self, sources: np.ndarray, targets: np.ndarray) -> float:
        """Unweighted half-perimeter wirelength over 2-pin wires (µm)."""
        return float(
            np.sum(np.abs(self.x[sources] - self.x[targets]))
            + np.sum(np.abs(self.y[sources] - self.y[targets]))
        )

    def copy(self) -> "Placement":
        """Deep copy of the placement."""
        return Placement(
            x=self.x.copy(),
            y=self.y.copy(),
            widths=self.widths.copy(),
            heights=self.heights.copy(),
            metadata=dict(self.metadata),
        )


@dataclass
class PhysicalDesign:
    """A fully implemented design: mapping + placement + routing + cost."""

    mapping: object  # MappingResult (kept loose to avoid an import cycle)
    placement: Placement
    routing: object  # RoutingResult
    cost: object  # PhysicalCost
    metadata: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Design label (from the mapping)."""
        return getattr(self.mapping, "name", "design")

    @property
    def stage_seconds(self) -> dict:
        """Wall time per executed flow stage, from the flow diagnostics.

        Empty for designs that carry no diagnostics (e.g. hand-built ones).
        """
        return dict(self.metadata.get("diagnostics", {}).get("stage_seconds", {}))

    def summary(self) -> dict:
        """Scalar summary for reports (Table 1 rows)."""
        return {
            "design": self.name,
            "wirelength_um": self.cost.wirelength_um,
            "area_um2": self.cost.area_um2,
            "delay_ns": self.cost.average_delay_ns,
            "cost": self.cost.total,
        }


def congestion_map(routing: object) -> Optional[np.ndarray]:
    """Per-bin wire count map from a routing result (Fig. 10(b)/(d)).

    Returns ``None`` when the routing result carries no usage data.
    """
    horizontal = getattr(routing, "horizontal_usage", None)
    vertical = getattr(routing, "vertical_usage", None)
    if horizontal is None or vertical is None:
        return None
    nx = max(horizontal.shape[0], vertical.shape[0])
    ny = max(horizontal.shape[1], vertical.shape[1])
    total = np.zeros((nx, ny))
    total[: horizontal.shape[0], : horizontal.shape[1]] += horizontal
    total[: vertical.shape[0], : vertical.shape[1]] += vertical
    return total
