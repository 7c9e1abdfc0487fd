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

After the last round, each wire that still takes a detour is re-routed
once by the shortest path over edges below base capacity, and keeps that
path when it is shorter: the rising costs can leave a wire on a detour
that the converged grid no longer forces.

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

from typing import TYPE_CHECKING, List, NamedTuple, Sequence

import numpy as np

from repro.physical.routing.grid import BinCoord
from repro.physical.routing.maze import MazeWorkspace, maze_route

if TYPE_CHECKING:
    from repro.physical.routing.router import RoutingResult

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


def negotiate_routes(
    pins: WirePins,
    workspace: MazeWorkspace,
    order: Sequence[int],
    result: RoutingResult,
) -> None:
    """Route every wire with negotiated congestion into ``result``.

    Fills ``result.paths`` and ``lengths`` and counts ``ripup_iterations``
    and ``ripups``; ``route`` flags the overflowed wires afterwards.  Usage
    is committed on ``result.grid`` exactly as the ordered router does, so
    downstream consumers (cost model, verifier, congestion maps) see the
    same bookkeeping.  The grid's capacity must be its base capacity (this
    router never relaxes it), so the grid's one over-capacity rule picks
    the wires to rip up.
    """
    grid = result.grid
    h_history, v_history = workspace.ensure_history()
    present = PRESENT_WEIGHT
    paths, lengths = result.paths, result.lengths
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

    for _ in range(MAX_RIPUP_ITERATIONS):
        over_h = grid.horizontal_usage > grid.horizontal_capacity
        over_v = grid.vertical_usage > grid.vertical_capacity
        if not (over_h.any() or over_v.any()):
            break
        result.ripup_iterations += 1
        # Chronic congestion leaves a permanent trace: every overused
        # edge gets history proportional to how far over it went.
        h_history += HISTORY_INCREMENT * np.maximum(
            grid.horizontal_usage - grid.horizontal_capacity, 0
        )
        v_history += HISTORY_INCREMENT * np.maximum(
            grid.vertical_usage - grid.vertical_capacity, 0
        )
        victims = [index for index in order if grid.overflows(paths[index])]
        for index in victims:
            grid.add_usage(paths[index], amount=-1)
        result.ripups += len(victims)
        present *= PRESENT_GROWTH
        for index in victims:
            search(index)

    # The detour pass (module docs): wires longer than their pin bins'
    # Manhattan distance, in routing order.
    for index in order:
        path, start, goal = paths[index], starts[index], goals[index]
        if len(path) - 1 <= abs(start[0] - goal[0]) + abs(start[1] - goal[1]):
            continue
        grid.add_usage(path, amount=-1)
        shorter = maze_route(grid, start, goal, congestion_weight=0.0, workspace=workspace)
        if shorter is not None and len(shorter) < len(path):
            paths[index] = path = shorter
            lengths[index] = grid.path_length_um(path)
        grid.add_usage(path)
