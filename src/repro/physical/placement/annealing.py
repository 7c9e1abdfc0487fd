"""Simulated-annealing placement baseline (extension).

The paper's placer is analytical (Algorithm 4); classic annealing is the
traditional alternative and makes a useful quality/runtime reference for
ablation benches.  Cells start from the same area-aware initial layout,
then random single-cell moves and pair swaps are accepted by the
Metropolis rule on ``HPWL + λ·overlap``; the result is legalized by the
analytic flow's own ``grid_snap`` + ``compact``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.mapping.netlist import Netlist
from repro.observability import get_recorder
from repro.physical.layout import Placement
from repro.physical.placement.initial import initial_placement
from repro.physical.placement.legalize import compact, grid_snap
from repro.utils.rng import RngLike, ensure_rng


#: Temperature factor applied after each temperature's moves.
COOLING = 0.85

#: Share of sampled uphill moves the starting temperature accepts.
INITIAL_ACCEPTANCE = 0.8

#: Cost of one µm² of (virtual) overlap, in µm of weighted wirelength.
OVERLAP_WEIGHT = 4.0

#: Starting displacement scale as a share of the initial layout's span.
MOVE_SCALE_FRACTION = 0.25


@dataclass
class AnnealingConfig:
    """The annealing move budget: ``temperatures × moves_per_temperature``."""

    moves_per_temperature: int = 400
    temperatures: int = 40

    def __post_init__(self) -> None:
        if self.moves_per_temperature < 1 or self.temperatures < 1:
            raise ValueError("move/temperature budgets must be >= 1")


def _wire_cost(
    x: np.ndarray,
    y: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
) -> float:
    return float(
        np.sum(
            weights
            * (np.abs(x[sources] - x[targets]) + np.abs(y[sources] - y[targets]))
        )
    )


def _cell_overlap(
    x: np.ndarray, y: np.ndarray, half_w: np.ndarray, half_h: np.ndarray, i: int
) -> float:
    """Total overlap area between cell ``i`` and all other cells."""
    dx = np.abs(x - x[i])
    dy = np.abs(y - y[i])
    ox = np.maximum(0.0, half_w + half_w[i] - dx)
    oy = np.maximum(0.0, half_h + half_h[i] - dy)
    overlap = ox * oy
    overlap[i] = 0.0
    return float(overlap.sum())


def anneal_place(
    netlist: Netlist,
    technology: Technology = DEFAULT_TECHNOLOGY,
    config: Optional[AnnealingConfig] = None,
    rng: RngLike = None,
) -> Placement:
    """Place a netlist by simulated annealing; returns a legalized placement."""
    if config is None:
        config = AnnealingConfig()
    rng = ensure_rng(rng)
    widths = netlist.widths
    heights = netlist.heights
    omega = technology.routing_space_factor
    virtual_w = widths * omega
    virtual_h = heights * omega
    half_w = virtual_w / 2.0
    half_h = virtual_h / 2.0
    n = netlist.num_cells
    x, y = initial_placement(virtual_w, virtual_h, rng=rng)
    sources, targets, wire_weights = netlist.sources, netlist.targets, netlist.weights

    # Per-cell wire adjacency for incremental cost evaluation.
    incident = netlist.incident_wires()

    def local_cost(i: int) -> float:
        wires = incident[i]
        wl = 0.0
        if wires.size:
            wl = float(
                np.sum(
                    wire_weights[wires]
                    * (
                        np.abs(x[sources[wires]] - x[targets[wires]])
                        + np.abs(y[sources[wires]] - y[targets[wires]])
                    )
                )
            )
        return wl + OVERLAP_WEIGHT * _cell_overlap(x, y, half_w, half_h, i)

    span = max(float(np.ptp(x)), float(np.ptp(y)), 1.0)
    move_scale = MOVE_SCALE_FRACTION * span

    # Calibrate the starting temperature from sampled uphill deltas.
    samples = []
    for _ in range(30):
        i = int(rng.integers(0, n))
        before = local_cost(i)
        old = (x[i], y[i])
        x[i] += rng.normal(0.0, move_scale)
        y[i] += rng.normal(0.0, move_scale)
        delta = local_cost(i) - before
        x[i], y[i] = old
        if delta > 0:
            samples.append(delta)
    mean_uphill = float(np.mean(samples)) if samples else 1.0
    temperature = -mean_uphill / np.log(INITIAL_ACCEPTANCE)

    # Move tallies stay plain local ints inside the Metropolis loop; the
    # recorder sees one flush at the end (null-recorder overhead contract).
    accepted_total = 0
    attempted_total = 0
    for _ in range(config.temperatures):
        for _ in range(config.moves_per_temperature):
            i = int(rng.integers(0, n))
            if rng.random() < 0.8:  # displacement move
                attempted_total += 1
                before = local_cost(i)
                old = (x[i], y[i])
                x[i] += rng.normal(0.0, move_scale)
                y[i] += rng.normal(0.0, move_scale)
                delta = local_cost(i) - before
                if delta > 0 and rng.random() >= np.exp(-delta / max(temperature, 1e-12)):
                    x[i], y[i] = old
                else:
                    accepted_total += 1
            else:  # pair swap
                j = int(rng.integers(0, n))
                if i == j:
                    continue
                attempted_total += 1
                before = local_cost(i) + local_cost(j)
                x[i], x[j] = x[j], x[i]
                y[i], y[j] = y[j], y[i]
                delta = local_cost(i) + local_cost(j) - before
                if delta > 0 and rng.random() >= np.exp(-delta / max(temperature, 1e-12)):
                    x[i], x[j] = x[j], x[i]
                    y[i], y[j] = y[j], y[i]
                else:
                    accepted_total += 1
        temperature *= COOLING
        move_scale = max(move_scale * 0.95, 0.01 * span)

    recorder = get_recorder()
    recorder.count("placement.anneal_moves", attempted_total)
    recorder.count("placement.anneal_accepted", accepted_total)
    recorder.count("placement.anneal_rejected", attempted_total - accepted_total)

    x, y = grid_snap(x, y, virtual_w, virtual_h)
    x, y = compact(x, y, virtual_w, virtual_h)
    if x.size:
        x = x - np.min(x - widths / 2.0)
        y = y - np.min(y - heights / 2.0)
    return Placement(
        x=x,
        y=y,
        widths=widths,
        heights=heights,
        metadata={
            "method": "annealing",
            "accepted_moves": accepted_total,
            "final_temperature": temperature,
            "final_hpwl": _wire_cost(x, y, sources, targets, np.ones_like(wire_weights)),
        },
    )
