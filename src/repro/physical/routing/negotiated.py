"""Negotiated-congestion rip-up-and-reroute routing (PathFinder style).

The paper's Sec. 3.5 router commits wires once in a fixed order and
relaxes the virtual capacity when wires fail — congestion is resolved by
*allowing more overflow*.  This module implements the alternative that
FPGA/ASIC flows converged on (McMurchie & Ebeling's PathFinder): every
wire is routed with congestion *priced* instead of blocked, then the
router iteratively rips up exactly the wires crossing overused edges and
reroutes them under two escalating cost terms:

* a **present** cost ``1 + present_weight · overuse`` that grows
  geometrically each iteration (``present_growth``), making currently
  contested edges progressively more expensive, and
* a **history** cost accumulated on every edge that was overused at the
  end of an iteration (``history_increment`` per unit of overuse), which
  remembers chronic congestion across iterations so wires stop
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
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.mapping.netlist import Netlist
from repro.physical.layout import Placement
from repro.physical.routing.grid import BinCoord, RoutingGrid
from repro.physical.routing.maze import MazeWorkspace, maze_route

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.physical.routing.router import RoutingConfig


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


def _pin_bins(
    netlist: Netlist, placement: Placement, grid: RoutingGrid, index: int
) -> Tuple[BinCoord, BinCoord, float]:
    """``(start, goal, same_bin_length)`` for one wire's pins."""
    wire = netlist.wires[index]
    sx, sy = placement.x[wire.source], placement.y[wire.source]
    tx, ty = placement.x[wire.target], placement.y[wire.target]
    start = grid.bin_of(sx, sy)
    goal = grid.bin_of(tx, ty)
    length = float(abs(sx - tx) + abs(sy - ty))
    return start, goal, length


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
    netlist: Netlist,
    placement: Placement,
    grid: RoutingGrid,
    workspace: MazeWorkspace,
    order: Sequence[int],
    config: "RoutingConfig",
) -> NegotiationOutcome:
    """Route every wire with negotiated congestion; returns the outcome.

    The caller owns the grid: usage counters are committed on it exactly
    as the ordered router does, so downstream consumers (cost model,
    verifier, congestion maps) see the same bookkeeping.
    """
    h_history, v_history = workspace.ensure_history()
    present = config.present_weight
    paths: Dict[int, List[BinCoord]] = {}
    lengths: Dict[int, float] = {}

    def search(index: int) -> None:
        start, goal, same_bin_length = _pin_bins(netlist, placement, grid, index)
        if start == goal:
            paths[index] = [start]
            lengths[index] = same_bin_length
            return
        path = maze_route(
            grid,
            start,
            goal,
            window_margin=config.window_margin_bins,
            congestion_weight=config.congestion_weight,
            workspace=workspace,
            present_weight=present,
        )
        if path is None:  # pragma: no cover - connected grid always routes
            raise RuntimeError(f"wire {index} could not be routed at all")
        grid.add_usage(path)
        paths[index] = path
        lengths[index] = grid.path_length_um(path)

    for index in order:
        search(index)

    iterations = 0
    ripups = 0
    for _ in range(config.max_ripup_iterations):
        over_h = grid.horizontal_usage > grid.horizontal_capacity
        over_v = grid.vertical_usage > grid.vertical_capacity
        if not (over_h.any() or over_v.any()):
            break
        iterations += 1
        # Chronic congestion leaves a permanent trace: every overused
        # edge gets history proportional to how far over it went.
        h_history += config.history_increment * np.maximum(
            grid.horizontal_usage - grid.horizontal_capacity, 0
        )
        v_history += config.history_increment * np.maximum(
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
        present *= config.present_growth
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
