"""Comparison reports: AutoNCS vs FullCro (the Table 1 presentation)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.physical.layout import PhysicalDesign


def reduction_percent(ours: float, baseline: float) -> float:
    """Paper-style reduction: ``(baseline - ours) / baseline · 100`` (%).

    Returns 0 when the baseline is zero (no meaningful reduction).
    """
    if baseline == 0.0:
        return 0.0
    return (baseline - ours) / baseline * 100.0


@dataclass
class ComparisonReport:
    """One testbench's AutoNCS-vs-FullCro physical comparison."""

    label: str
    autoncs: PhysicalDesign
    fullcro: PhysicalDesign
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def wirelength_reduction(self) -> float:
        """Total-wirelength reduction (%)."""
        return reduction_percent(
            self.autoncs.cost.wirelength_um, self.fullcro.cost.wirelength_um
        )

    @property
    def area_reduction(self) -> float:
        """Placement-area reduction (%)."""
        return reduction_percent(self.autoncs.cost.area_um2, self.fullcro.cost.area_um2)

    @property
    def delay_reduction(self) -> float:
        """Average-wire-delay reduction (%)."""
        return reduction_percent(
            self.autoncs.cost.average_delay_ns, self.fullcro.cost.average_delay_ns
        )

    def rows(self) -> List[Dict[str, object]]:
        """Table 1 rows: AutoNCS, FullCro, and the reduction line."""
        return [
            {
                "testbench": self.label,
                "design": "AutoNCS",
                "wirelength_um": self.autoncs.cost.wirelength_um,
                "area_um2": self.autoncs.cost.area_um2,
                "delay_ns": self.autoncs.cost.average_delay_ns,
            },
            {
                "testbench": self.label,
                "design": "FullCro",
                "wirelength_um": self.fullcro.cost.wirelength_um,
                "area_um2": self.fullcro.cost.area_um2,
                "delay_ns": self.fullcro.cost.average_delay_ns,
            },
            {
                "testbench": self.label,
                "design": "Reduc. (%)",
                "wirelength_um": self.wirelength_reduction,
                "area_um2": self.area_reduction,
                "delay_ns": self.delay_reduction,
            },
        ]

    def stage_seconds(self) -> Dict[str, Dict[str, float]]:
        """Per-flow stage wall times, as recorded by the flow diagnostics.

        Keys are the design names ("AutoNCS", "FullCro"); values map stage
        names to seconds.  Empty for designs that carry no diagnostics
        (e.g. hand-built reports in unit tests).
        """
        times: Dict[str, Dict[str, float]] = {}
        for name, design in (("AutoNCS", self.autoncs), ("FullCro", self.fullcro)):
            stage_seconds = design.stage_seconds
            if stage_seconds:
                times[name] = stage_seconds
        return times

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dict (the repo-wide result-object surface)."""
        return {
            "label": self.label,
            "rows": self.rows(),
            "wirelength_reduction": self.wirelength_reduction,
            "area_reduction": self.area_reduction,
            "delay_reduction": self.delay_reduction,
            "stage_seconds": self.stage_seconds(),
            "metadata": dict(self.metadata),
        }

    def format_table(self, show_timings: bool = True) -> str:
        """Human-readable Table 1 block for this testbench.

        With ``show_timings`` (the default), per-stage wall times from
        the flow diagnostics are appended, so the comparison also shows
        *where the time went* (ISC, mapping, placement, routing, cost).
        """
        lines = [
            f"Testbench {self.label}",
            f"{'design':<12}{'wirelength (um)':>18}{'area (um2)':>16}{'delay (ns)':>12}",
        ]
        for row in self.rows():
            if row["design"] == "Reduc. (%)":
                lines.append(
                    f"{row['design']:<12}{row['wirelength_um']:>17.2f}%"
                    f"{row['area_um2']:>15.2f}%{row['delay_ns']:>11.2f}%"
                )
            else:
                lines.append(
                    f"{row['design']:<12}{row['wirelength_um']:>18,.1f}"
                    f"{row['area_um2']:>16,.2f}{row['delay_ns']:>12.2f}"
                )
        if show_timings:
            for name, stage_seconds in self.stage_seconds().items():
                lines.append(f"stage seconds — {name}:")
                lines.append(format_stage_seconds(stage_seconds))
        return "\n".join(lines)


def format_stage_seconds(
    stage_seconds: Mapping[str, float], indent: str = "  "
) -> str:
    """Render per-stage wall times as an aligned block with percentages.

    ``stage_seconds`` maps stage names to seconds (e.g.
    :attr:`PhysicalDesign.stage_seconds`); insertion order is preserved,
    a total line is appended.
    """
    stages = [(str(name), float(seconds)) for name, seconds in stage_seconds.items()]
    if not stages:
        return f"{indent}(no stage timings recorded)"
    total = sum(seconds for _, seconds in stages)
    width = max(len("total"), max(len(name) for name, _ in stages))
    lines = []
    for name, seconds in stages:
        share = (seconds / total * 100.0) if total > 0 else 0.0
        lines.append(f"{indent}{name:<{width}}  {seconds:9.3f} s  ({share:5.1f} %)")
    lines.append(f"{indent}{'total':<{width}}  {total:9.3f} s")
    return "\n".join(lines)


def average_reductions(reports: List[ComparisonReport]) -> Dict[str, float]:
    """Mean reductions over several testbenches (the paper's headline)."""
    if not reports:
        return {"wirelength": 0.0, "area": 0.0, "delay": 0.0}
    return {
        "wirelength": sum(r.wirelength_reduction for r in reports) / len(reports),
        "area": sum(r.area_reduction for r in reports) / len(reports),
        "delay": sum(r.delay_reduction for r in reports) / len(reports),
    }
