"""The routing driver (paper Sec. 3.5).

Order: "the routing order is determined by the distance from the center of
gravity of all cells to its closest pin of wires" — central (most
congested) wires route first — "if the distance is the same for more than
two wires, we will use wire weighting as the tie breaker."

Failure handling: "certain wires may fail to be routed by this routing
order.  In that case, the virtual capacity will be relaxed for rerouting
failed wires until all wires are routed."  A final allow-overflow pass
guarantees completion even under extreme congestion (reported in the
result's overflow statistics).

The grid's bin width θ and edge capacity come from the technology; on a
die wider than :data:`MAX_GRID_BINS` bins θ coarsens and the capacity
scales with it.

Two algorithms share this driver, selected by
``RoutingConfig.algorithm``:

* ``"ordered"`` (the paper's) — single-pass ordered routing with
  capacity relaxation and the never-fail overflow pass described above;
* ``"negotiated"`` — PathFinder-style negotiated-congestion rip-up and
  reroute (:mod:`repro.physical.routing.negotiated`): congestion is
  priced instead of blocked, and only the wires crossing overused edges
  are iteratively ripped up under rising present + history costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence

import numpy as np

from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.mapping.netlist import Netlist
from repro.observability import get_recorder
from repro.physical.layout import Placement
from repro.physical.routing.grid import BinCoord, RoutingGrid
from repro.physical.routing.maze import MazeWorkspace, maze_route
from repro.physical.routing.negotiated import WirePins, negotiate_routes

#: The routing algorithms ``route`` can dispatch to.
ROUTING_ALGORITHMS = ("ordered", "negotiated")

#: Capacity added to every edge per relaxation round of the ordered router.
RELAX_INCREMENT = 4

#: Empty bins added around the placement's bounding box on each side.
REGION_MARGIN_BINS = 1

#: Most bins along the die's longer side; larger dies coarsen θ to fit.
MAX_GRID_BINS = 56


@dataclass
class RoutingConfig:
    """Which global router runs, and its relaxation budget.

    θ and the edge capacity come from the
    :class:`~repro.hardware.technology.Technology`; the search window is
    :data:`~repro.physical.routing.maze.WINDOW_MARGIN_BINS` and the rip-up
    budget :data:`~repro.physical.routing.negotiated.MAX_RIPUP_ITERATIONS`.

    ``algorithm`` selects the router: ``"ordered"`` is the paper's
    single-pass ordered route with capacity relaxation;
    ``"negotiated"`` is PathFinder-style negotiated-congestion rip-up
    and reroute.  ``max_relax_rounds`` only affects the ordered
    algorithm.
    """

    # Read only by benchmarks/e2e/measure.py, which prints it in its run header.
    kernel: ClassVar[str] = "python"

    max_relax_rounds: int = 5
    algorithm: str = "ordered"

    def __post_init__(self) -> None:
        if self.max_relax_rounds < 0:
            raise ValueError("max_relax_rounds must be >= 0")
        if self.algorithm not in ROUTING_ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ROUTING_ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )


@dataclass
class RoutedWire:
    """One wire's routing outcome."""

    wire_index: int
    path: List[BinCoord]
    length_um: float
    overflowed: bool = False


@dataclass
class RoutingResult:
    """Complete routing outcome: per-wire paths, lengths and congestion.

    ``relax_rounds`` counts capacity relaxations (ordered algorithm);
    ``ripup_iterations``/``ripups`` count negotiation rounds and
    individual wire rip-ups (negotiated algorithm).  Each is zero for
    the other algorithm.
    """

    wires: List[RoutedWire]
    grid: RoutingGrid
    relax_rounds: int
    overflow_wires: int
    algorithm: str = "ordered"
    ripup_iterations: int = 0
    ripups: int = 0

    @property
    def total_wirelength_um(self) -> float:
        """Total routed wirelength L (µm) — the Table 1 metric."""
        return float(sum(w.length_um for w in self.wires))

    @property
    def lengths(self) -> np.ndarray:
        """Per-wire routed lengths in wire-index order."""
        ordered = sorted(self.wires, key=lambda w: w.wire_index)
        return np.array([w.length_um for w in ordered])

    @property
    def horizontal_usage(self) -> np.ndarray:
        """Horizontal routing-edge usage (for congestion maps)."""
        return self.grid.horizontal_usage

    @property
    def vertical_usage(self) -> np.ndarray:
        """Vertical routing-edge usage (for congestion maps)."""
        return self.grid.vertical_usage

    def congestion_map(self) -> np.ndarray:
        """Per-bin wire counts (Fig. 10(b)/(d))."""
        return self.grid.congestion_map()


def _routing_order(
    netlist: Netlist, placement: Placement
) -> List[int]:
    """Paper routing order: gravity-center distance, wire weight tie-break.

    Fully vectorized, and computed in float64 regardless of the
    placement's dtype so the order — which golden fixtures depend on —
    is identical on every platform.
    """
    if not netlist.num_wires:
        return []
    sources, targets, weights = netlist.sources, netlist.targets, netlist.weights
    x = np.asarray(placement.x, dtype=np.float64)
    y = np.asarray(placement.y, dtype=np.float64)
    cx = x.mean()
    cy = y.mean()
    dist_source = np.abs(x[sources] - cx) + np.abs(y[sources] - cy)
    dist_target = np.abs(x[targets] - cx) + np.abs(y[targets] - cy)
    closest = np.minimum(dist_source, dist_target)
    # Ascending distance; ties broken by descending wire weight, then by
    # wire index (lexsort keys run last-to-first).
    order = np.lexsort((np.arange(netlist.num_wires), -weights, closest))
    return [int(index) for index in order]


def _wire_pins(netlist: Netlist, placement: Placement, grid: RoutingGrid) -> WirePins:
    """Every wire's start bin, goal bin and pin-to-pin Manhattan length (µm)."""
    sx, sy = placement.x[netlist.sources], placement.y[netlist.sources]
    tx, ty = placement.x[netlist.targets], placement.y[netlist.targets]
    start_x, start_y = grid.bin_of(sx, sy)
    goal_x, goal_y = grid.bin_of(tx, ty)
    return WirePins(
        starts=list(zip(start_x.tolist(), start_y.tolist())),
        goals=list(zip(goal_x.tolist(), goal_y.tolist())),
        same_bin_lengths=(np.abs(sx - tx) + np.abs(sy - ty)).tolist(),
    )


def route(
    netlist: Netlist,
    placement: Placement,
    technology: Technology = DEFAULT_TECHNOLOGY,
    config: Optional[RoutingConfig] = None,
) -> RoutingResult:
    """Globally route every wire of a placed netlist.

    Pins sit at cell centers.  Wires whose pins share a bin get the
    pin-to-pin Manhattan length and consume no edge capacity.
    """
    if config is None:
        config = RoutingConfig()
    if placement.num_cells != netlist.num_cells:
        raise ValueError(
            f"placement has {placement.num_cells} cells, netlist has {netlist.num_cells}"
        )
    bin_um = technology.routing_bin_um
    capacity = technology.routing_capacity_per_bin
    xmin, ymin, xmax, ymax = placement.bounding_box()
    # Coarsen θ on large dies so the grid stays tractable; capacity scales
    # with the merge factor (a wider boundary carries more wires).
    span = max(xmax - xmin, ymax - ymin, bin_um)
    if span / bin_um > MAX_GRID_BINS:
        scale = span / (bin_um * MAX_GRID_BINS)
        bin_um *= scale
        capacity = max(1, int(round(capacity * scale)))
    margin = REGION_MARGIN_BINS * bin_um
    grid = RoutingGrid(
        origin=(xmin - margin, ymin - margin),
        width=(xmax - xmin) + 2 * margin,
        height=(ymax - ymin) + 2 * margin,
        bin_um=bin_um,
        capacity=capacity,
    )
    workspace = MazeWorkspace(grid)

    recorder = get_recorder()
    order = _routing_order(netlist, placement)
    pins = _wire_pins(netlist, placement, grid)

    with recorder.span(
        "routing.global",
        wires=netlist.num_wires,
        bins=[grid.nx, grid.ny],
        algorithm=config.algorithm,
    ) as span:
        if config.algorithm == "negotiated":
            result = _route_negotiated(pins, grid, workspace, order)
        else:
            result = _route_ordered(pins, grid, workspace, order, config, recorder)
        # One reporting flush per route() call — the maze inner loop only
        # touches workspace integers (null-recorder overhead contract).
        recorder.count("routing.wires_routed", len(result.wires))
        recorder.count("routing.ripup_retries", result.ripups)
        recorder.count("routing.ripup_iterations", result.ripup_iterations)
        recorder.count("routing.relax_rounds", result.relax_rounds)
        recorder.count("routing.overflow_wires", result.overflow_wires)
        recorder.count("routing.heap_pushes", workspace.heap_pushes)
        recorder.count("routing.heap_pops", workspace.heap_pops)
        recorder.count("routing.visited_bins", workspace.visited_bins)
        recorder.count("routing.maze_searches", workspace.searches)
        recorder.count("routing.heuristic_builds", workspace.heuristic_builds)
        recorder.count("routing.heuristic_hits", workspace.heuristic_hits)
        if recorder.enabled:
            recorder.observe_many(
                "routing.path_bins", [len(wire.path) for wire in result.wires]
            )
            recorder.gauge("routing.total_wirelength_um", result.total_wirelength_um)
        span.annotate(
            ripup_retries=result.ripups,
            relax_rounds=result.relax_rounds,
            ripup_iterations=result.ripup_iterations,
            overflow_wires=result.overflow_wires,
            heap_pushes=workspace.heap_pushes,
        )
    return result


def _route_ordered(
    pins: WirePins,
    grid: RoutingGrid,
    workspace: MazeWorkspace,
    order: List[int],
    config: RoutingConfig,
    recorder,
) -> RoutingResult:
    """The paper's ordered route: relax capacity, then never-fail overflow."""
    routed: Dict[int, RoutedWire] = {}
    failed: List[int] = []
    starts, goals, same_bin_lengths = pins

    def try_route(index: int, allow_overflow: bool) -> Optional[RoutedWire]:
        start, goal = starts[index], goals[index]
        if start == goal:
            return RoutedWire(
                wire_index=index, path=[start], length_um=same_bin_lengths[index]
            )
        path = maze_route(
            grid, start, goal, allow_overflow=allow_overflow, workspace=workspace
        )
        if path is None:
            return None
        grid.add_usage(path)
        overflowed = allow_overflow and _path_overflows(grid, path)
        return RoutedWire(
            wire_index=index,
            path=path,
            length_um=grid.path_length_um(path),
            overflowed=overflowed,
        )

    def route_pass(indices: Sequence[int], allow_overflow: bool) -> List[int]:
        """Route ``indices`` in order; returns the failures."""
        still_failed: List[int] = []
        for index in indices:
            outcome = try_route(index, allow_overflow)
            if outcome is None:
                still_failed.append(index)
            else:
                routed[index] = outcome
        return still_failed

    failed = route_pass(order, allow_overflow=False)
    first_pass_failures = len(failed)

    relax_rounds = 0
    ripup_retries = 0
    while failed and relax_rounds < config.max_relax_rounds:
        relax_rounds += 1
        grid.relax_capacity(RELAX_INCREMENT)
        recorder.event("routing.relax_round", round=relax_rounds, failed=len(failed))
        ripup_retries += len(failed)
        failed = route_pass(failed, allow_overflow=False)

    # Never-fail final pass: overflow allowed, heavily penalized.
    overflow_wires = 0
    if failed:
        ripup_retries += len(failed)
        remaining = route_pass(failed, allow_overflow=True)
        if remaining:  # pragma: no cover - connected grid always routes
            raise RuntimeError(f"wire {remaining[0]} could not be routed at all")
        for index in failed:
            if routed[index].overflowed:
                overflow_wires += 1
                recorder.event("routing.overflow", wire=index)

    recorder.count("routing.first_pass_failures", first_pass_failures)
    return RoutingResult(
        wires=[routed[i] for i in sorted(routed)],
        grid=grid,
        relax_rounds=relax_rounds,
        overflow_wires=overflow_wires,
        algorithm="ordered",
        ripups=ripup_retries,
    )


def _route_negotiated(
    pins: WirePins,
    grid: RoutingGrid,
    workspace: MazeWorkspace,
    order: List[int],
) -> RoutingResult:
    """PathFinder-style negotiated congestion, wrapped as a RoutingResult."""
    outcome = negotiate_routes(pins, grid, workspace, order)
    wires: List[RoutedWire] = []
    overflow_wires = 0
    for index in sorted(outcome.paths):
        path = outcome.paths[index]
        overflowed = len(path) > 1 and _path_overflows(grid, path)
        if overflowed:
            overflow_wires += 1
        wires.append(
            RoutedWire(
                wire_index=index,
                path=path,
                length_um=outcome.lengths[index],
                overflowed=overflowed,
            )
        )
    return RoutingResult(
        wires=wires,
        grid=grid,
        relax_rounds=0,
        overflow_wires=overflow_wires,
        algorithm="negotiated",
        ripup_iterations=outcome.iterations,
        ripups=outcome.ripups,
    )


def _path_overflows(grid: RoutingGrid, path: List[BinCoord]) -> bool:
    """True when any edge on ``path`` exceeds its base capacity."""
    for a, b in zip(path, path[1:]):
        edge = grid.edge_between(a, b)
        if grid.edge_usage(edge) > grid.base_capacity:
            return True
    return False
