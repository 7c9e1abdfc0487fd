"""The placement driver — paper Algorithm 4, with a customized front/back end.

Pipeline:

1. **Seed** (Algorithm 4 line 1, "regular location", customized): a
   connectivity-aware seed places crossbars on a spectral-ordered grid,
   neurons on their crossbars' centroids and synapses between their
   endpoints (:mod:`~repro.physical.placement.seed`); designs without
   crossbar structure fall back to an area-aware packed grid.
2. **Penalty loop** (lines 2–6): minimize ``WL(x,y) + λ·D(x,y)`` by
   conjugate gradient, doubling λ while the overlap ratio exceeds
   :data:`OVERLAP_THRESHOLD`.  A stage whose CG value or coordinates are
   non-finite ends the loop: its layout is dropped, the last finite
   stage is the refined layout, and the reason lands in
   ``metadata["diverged"]``.
3. **Legalization** (line 7): a structure-preserving grid-snap assigns
   every cell the free site nearest its optimized location; the snap of
   the raw seed is kept as a second candidate and the better (by weighted
   HPWL) wins — the analytic refinement is never allowed to end worse
   than its own starting point, and a diverged loop still ends legal.
4. **Compaction**: constraint-graph scanline compaction squeezes out the
   remaining whitespace without reordering cells.

Cells use *virtual* dimensions (physical size × the routing-space factor
ω, Sec. 3.5, read from the technology) through steps 1–4 so that routing
space is reserved around every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.mapping.netlist import CellKind, Netlist
from repro.observability import get_recorder
from repro.physical.layout import Placement
from repro.physical.placement.density import true_overlap
from repro.physical.placement.initial import WHITESPACE_FACTOR, initial_placement
from repro.physical.placement.legalize import compact, grid_snap
from repro.physical.placement.objective import PlacementObjective
from repro.physical.placement.optimizer import conjugate_gradient
from repro.physical.placement.seed import connectivity_seed
from repro.physical.placement.wirelength import hpwl
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_whole_number


#: Algorithm 4's stop rule: λ stops doubling once total (virtual) overlap
#: area over total (virtual) cell area falls to this ratio.
OVERLAP_THRESHOLD = 0.02


@dataclass
class PlacementConfig:
    """The penalty-loop budget of the analytical placer (Algorithm 4 lines 2–6).

    The WA and density smoothing lengths γ and τ scale with the design
    (about 1 % and 0.5 % of the estimated chip side); ω comes from the
    :class:`~repro.hardware.technology.Technology`.

    Attributes
    ----------
    max_lambda_stages:
        Most λ values tried; λ doubles after each stage.
    cg_iterations_per_stage:
        Conjugate-gradient iterations per λ stage.
    """

    max_lambda_stages: int = 8
    cg_iterations_per_stage: int = 30

    def __post_init__(self) -> None:
        for name in ("max_lambda_stages", "cg_iterations_per_stage"):
            setattr(self, name, check_whole_number(name, getattr(self, name)))


def place(
    netlist: Netlist,
    technology: Technology = DEFAULT_TECHNOLOGY,
    config: Optional[PlacementConfig] = None,
    rng: RngLike = None,
) -> Placement:
    """Place a netlist and return a legalized, compacted placement.

    The returned :class:`Placement` stores *physical* cell dimensions; its
    metadata records the λ schedule (with each stage's weighted HPWL), the
    winning snapshot, HPWL at the pipeline milestones, and ``"diverged"``:
    ``None``, or why the penalty loop stopped at a non-finite stage.
    """
    if config is None:
        config = PlacementConfig()
    rng = ensure_rng(rng)
    widths = netlist.widths
    heights = netlist.heights
    omega = technology.routing_space_factor
    virtual_w = widths * omega
    virtual_h = heights * omega
    total_virtual_area = float(np.sum(virtual_w * virtual_h))
    sources, targets, wire_weights = netlist.sources, netlist.targets, netlist.weights

    if sources.size and np.any(netlist.kinds == CellKind.CROSSBAR):
        seed_x, seed_y = connectivity_seed(netlist, virtual_w, virtual_h, rng=rng)
        seed_kind = "connectivity"
    else:
        seed_x, seed_y = initial_placement(virtual_w, virtual_h, rng=rng)
        seed_kind = "area_grid"

    side_estimate = float(np.sqrt(total_virtual_area * WHITESPACE_FACTOR))
    gamma = max(0.01 * side_estimate, 0.5)
    tau = max(0.005 * side_estimate, 0.25)

    def weighted_hpwl(px: np.ndarray, py: np.ndarray) -> float:
        if not sources.size:
            return 0.0
        return hpwl(px, py, sources, targets, weights=wire_weights)

    hpwl_seed = weighted_hpwl(seed_x, seed_y)
    recorder = get_recorder()
    stage_log = []
    objective = None
    diverged = None
    x, y = seed_x, seed_y
    if sources.size:
        objective = PlacementObjective(
            sources=sources,
            targets=targets,
            weights=wire_weights,
            virtual_widths=virtual_w,
            virtual_heights=virtual_h,
            gamma=gamma,
            tau=tau,
        )
        z = objective.pack(seed_x, seed_y)
        lam = objective.initial_lambda(z)  # Algorithm 4 line 1
        with recorder.span(
            "placement.penalty_loop", cells=netlist.num_cells, wires=netlist.num_wires
        ) as loop_span:
            for stage in range(1, config.max_lambda_stages + 1):
                objective.lam = lam
                result = conjugate_gradient(
                    objective,
                    z,
                    max_iterations=config.cg_iterations_per_stage,
                )
                diverged = _divergence(result.value, result.z, stage)
                if diverged is not None:
                    break
                z = result.z
                x, y = objective.unpack(z)
                overlap = true_overlap(x, y, virtual_w, virtual_h)
                overlap_ratio = overlap / total_virtual_area if total_virtual_area else 0.0
                stage_log.append(
                    {
                        "stage": stage,
                        "lambda": lam,
                        "objective": result.value,
                        "cg_iterations": result.iterations,
                        "overlap_ratio": overlap_ratio,
                        "hpwl": weighted_hpwl(x, y),
                    }
                )
                if overlap_ratio <= OVERLAP_THRESHOLD:
                    break
                lam *= 2.0  # Algorithm 4 line 5
            # Where the wirelength goes: the seed, each λ stage, the refined layout.
            loop_span.annotate(
                lambda_stages=len(stage_log),
                final_overlap_ratio=stage_log[-1]["overlap_ratio"] if stage_log else 0.0,
                hpwl_seed=hpwl_seed,
                hpwl_stages=[entry["hpwl"] for entry in stage_log],
                hpwl_refined=stage_log[-1]["hpwl"] if stage_log else hpwl_seed,
            )
            if diverged is not None:
                loop_span.annotate(diverged=diverged)

    # Two legal candidates: snap of the seed and snap of the refined layout.
    # min() keeps the first of equal values, so a tie picks the seed.
    with recorder.span("placement.legalize") as legalize_span:
        candidates = {"seed": grid_snap(seed_x, seed_y, virtual_w, virtual_h)}
        if stage_log:
            candidates["refined"] = grid_snap(x, y, virtual_w, virtual_h)
        snap_hpwl = {name: weighted_hpwl(*xy) for name, xy in candidates.items()}
        chosen_name = min(snap_hpwl, key=snap_hpwl.__getitem__)
        x, y = candidates[chosen_name]
        hpwl_after_snap = snap_hpwl[chosen_name]
        x, y = compact(x, y, virtual_w, virtual_h)
        hpwl_after_compact = weighted_hpwl(x, y)
        legalize_span.annotate(
            chosen=chosen_name,
            **{f"hpwl_{name}_snap": value for name, value in snap_hpwl.items()},
        )

    recorder.count("placement.runs")
    recorder.count("placement.lambda_stages", len(stage_log))
    recorder.count(
        "placement.gradient_steps", sum(s["cg_iterations"] for s in stage_log)
    )
    if objective is not None:
        recorder.count("placement.wa_evals", objective.wa_evals)
        recorder.count("placement.density_evals", objective.density_evals)
        recorder.count("placement.density_pairs", objective.density_pairs)
        recorder.count("placement.pair_rebuilds", objective.pairs.rebuilds)
        recorder.count("placement.gradient_evals", objective.gradient_evals)
    if "refined" in candidates:
        # The analytic refinement lost to its own snapped starting point.
        recorder.count("placement.seed_snapshot_chosen", int(chosen_name == "seed"))
    if stage_log:
        recorder.gauge("placement.final_overlap_ratio", stage_log[-1]["overlap_ratio"])
    recorder.gauge("placement.hpwl_after_legalization", hpwl_after_compact)

    # Normalize to a (0, 0) origin for readable layouts (physical extents).
    if x.size:
        x = x - np.min(x - widths / 2.0)
        y = y - np.min(y - heights / 2.0)
    return Placement(
        x=x,
        y=y,
        widths=widths,
        heights=heights,
        metadata={
            "seed": seed_kind,
            "stages": stage_log,
            "gamma_um": gamma,
            "tau_um": tau,
            "routing_space_factor": omega,
            "chosen_snapshot": chosen_name,
            "hpwl_seed": hpwl_seed,
            "hpwl_after_legalization": hpwl_after_snap,
            "hpwl_after_compaction": hpwl_after_compact,
            "diverged": diverged,
        },
    )


def _divergence(value: float, z: np.ndarray, stage: int) -> Optional[str]:
    """Why a λ stage's CG result is unusable, or ``None`` when it is finite."""
    if not np.isfinite(value):
        return f"non-finite objective at lambda stage {stage}"
    if not np.all(np.isfinite(z)):
        return f"non-finite coordinates at lambda stage {stage}"
    return None
