"""Negotiated-congestion rip-up-and-reroute routing (PathFinder style).

The paper's Sec. 3.5 router commits wires once in a fixed order and
relaxes the virtual capacity when wires fail — congestion is resolved by
*allowing more overflow*.  This module implements the alternative that
FPGA/ASIC flows converged on (McMurchie & Ebeling's PathFinder): every
wire is routed with congestion *priced* instead of blocked, then the
router iteratively rips up exactly the wires crossing overused edges and
reroutes them under two escalating cost terms:

* a **present** cost ``1 + present_weight · overuse`` that grows
  geometrically each iteration (×:data:`PRESENT_GROWTH` from
  :data:`PRESENT_WEIGHT`), making currently contested edges
  progressively more expensive, and
* a **history** cost accumulated on every edge that was overused at the
  end of an iteration (:data:`HISTORY_INCREMENT` per unit of overuse),
  which remembers chronic congestion across iterations so wires stop
  oscillating between two equally contested corridors.

The search itself is the existing windowed A* of
:mod:`repro.physical.routing.maze` — the negotiated costs are folded into
the same :class:`~repro.physical.routing.maze.MazeWorkspace` arrays
(``ensure_history``), so the hot inner loop is shared with the ordered
router rather than duplicated.

Entry point: :func:`negotiate_routes`, called by
:func:`repro.physical.routing.router.route` when
``RoutingConfig.algorithm == "negotiated"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from repro.physical.routing.grid import BinCoord, RoutingGrid
from repro.physical.routing.maze import MazeWorkspace, maze_route

#: Present-congestion weight of the first rip-up round.
PRESENT_WEIGHT = 0.5

#: Factor on the present-congestion weight after each rip-up round.
PRESENT_GROWTH = 1.6

#: History cost added per unit of overuse to each overused edge per round.
HISTORY_INCREMENT = 0.4

#: Most rip-up rounds after the first routing of every wire.
MAX_RIPUP_ITERATIONS = 16


class WirePins(NamedTuple):
    """Per wire (by index), the bins of its two pins and, for a wire whose
    pins share a bin, the pin-to-pin Manhattan length it is given (µm)."""

    starts: List[BinCoord]
    goals: List[BinCoord]
    same_bin_lengths: List[float]


@dataclass
class NegotiationOutcome:
    """Everything one negotiated-congestion run produced.

    ``paths``/``lengths`` are keyed by wire index; ``iterations`` counts
    the rip-up rounds that actually ran and ``ripups`` the individual
    wire rip-ups across all of them.  ``converged`` is True when the
    final usage respects every edge capacity.
    """

    paths: Dict[int, List[BinCoord]]
    lengths: Dict[int, float]
    iterations: int = 0
    ripups: int = 0
    converged: bool = True
    metadata: dict = field(default_factory=dict)


def _crosses_overuse(
    path: Sequence[BinCoord],
    over_h: np.ndarray,
    over_v: np.ndarray,
) -> bool:
    """True when ``path`` uses any edge flagged in the overuse masks."""
    for a, b in zip(path, path[1:]):
        (ax, ay), (bx, by) = a, b
        if ay == by:
            if over_h[min(ax, bx), ay]:
                return True
        elif over_v[ax, min(ay, by)]:
            return True
    return False


def negotiate_routes(
    pins: WirePins,
    grid: RoutingGrid,
    workspace: MazeWorkspace,
    order: Sequence[int],
) -> NegotiationOutcome:
    """Route every wire with negotiated congestion; returns the outcome.

    The caller owns the grid: usage counters are committed on it exactly
    as the ordered router does, so downstream consumers (cost model,
    verifier, congestion maps) see the same bookkeeping.
    """
    h_history, v_history = workspace.ensure_history()
    present = PRESENT_WEIGHT
    paths: Dict[int, List[BinCoord]] = {}
    lengths: Dict[int, float] = {}
    starts, goals, same_bin_lengths = pins

    def search(index: int) -> None:
        start, goal = starts[index], goals[index]
        if start == goal:
            paths[index] = [start]
            lengths[index] = same_bin_lengths[index]
            return
        path = maze_route(grid, start, goal, workspace=workspace, present_weight=present)
        if path is None:  # pragma: no cover - connected grid always routes
            raise RuntimeError(f"wire {index} could not be routed at all")
        grid.add_usage(path)
        paths[index] = path
        lengths[index] = grid.path_length_um(path)

    for index in order:
        search(index)

    iterations = 0
    ripups = 0
    for _ in range(MAX_RIPUP_ITERATIONS):
        over_h = grid.horizontal_usage > grid.horizontal_capacity
        over_v = grid.vertical_usage > grid.vertical_capacity
        if not (over_h.any() or over_v.any()):
            break
        iterations += 1
        # Chronic congestion leaves a permanent trace: every overused
        # edge gets history proportional to how far over it went.
        h_history += HISTORY_INCREMENT * np.maximum(
            grid.horizontal_usage - grid.horizontal_capacity, 0
        )
        v_history += HISTORY_INCREMENT * np.maximum(
            grid.vertical_usage - grid.vertical_capacity, 0
        )
        victims = [
            index
            for index in order
            if len(paths[index]) > 1 and _crosses_overuse(paths[index], over_h, over_v)
        ]
        for index in victims:
            grid.add_usage(paths[index], amount=-1)
        ripups += len(victims)
        present *= PRESENT_GROWTH
        for index in victims:
            search(index)

    over_h = grid.horizontal_usage > grid.horizontal_capacity
    over_v = grid.vertical_usage > grid.vertical_capacity
    return NegotiationOutcome(
        paths=paths,
        lengths=lengths,
        iterations=iterations,
        ripups=ripups,
        converged=not (over_h.any() or over_v.any()),
        metadata={"final_present_weight": present},
    )
