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

Both fill one :class:`RoutingResult` that ``route`` allocates: per-wire
arrays indexed by wire, written in place as each wire commits.  Once
either returns, ``route`` flags every wire with the grid's one
over-capacity rule, :meth:`~repro.physical.routing.grid.RoutingGrid.
overflows`, so ``overflow_wires`` means the same for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence

import numpy as np

from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.mapping.netlist import Netlist
from repro.observability import get_recorder
from repro.physical.layout import Placement
from repro.physical.routing.grid import BinCoord, RoutingGrid
from repro.physical.routing.maze import MazeWorkspace, maze_route
from repro.physical.routing.negotiated import WirePins, negotiate_routes
from repro.utils.validation import check_whole_number

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
        self.max_relax_rounds = check_whole_number(
            "max_relax_rounds", self.max_relax_rounds, minimum=0
        )
        if self.algorithm not in ROUTING_ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ROUTING_ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )


@dataclass
class RoutingResult:
    """Complete routing outcome: per-wire arrays indexed by wire, and the grid.

    ``paths[i]`` is wire *i*'s bin path from its source pin's bin to its
    target pin's bin (one bin when both pins share it), ``lengths[i]`` its
    routed length in µm (float64) and ``overflowed[i]`` (bool) whether its
    final path crosses an edge whose final usage exceeds the base
    capacity, for either algorithm and whatever capacity relaxation the
    ordered one applied.
    ``relax_rounds`` counts capacity relaxations (ordered algorithm);
    ``ripup_iterations``/``ripups`` count negotiation rounds and
    individual wire rip-ups (negotiated algorithm), and ``ripups`` the
    re-routed failures of the ordered one.
    """

    paths: List[List[BinCoord]]
    lengths: np.ndarray
    overflowed: np.ndarray
    grid: RoutingGrid
    algorithm: str = "ordered"
    relax_rounds: int = 0
    ripup_iterations: int = 0
    ripups: int = 0

    @property
    def overflow_wires(self) -> int:
        """Number of wires flagged in ``overflowed``."""
        return int(np.count_nonzero(self.overflowed))

    @property
    def total_wirelength_um(self) -> float:
        """Total routed wirelength L (µm) — the Table 1 metric.

        Summed left to right in wire order as Python floats, so its repr
        is the one the golden fixtures record.
        """
        return float(sum(self.lengths.tolist()))

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
    num_wires = netlist.num_wires
    result = RoutingResult(
        paths=[[] for _ in range(num_wires)],
        lengths=np.zeros(num_wires),
        overflowed=np.zeros(num_wires, dtype=bool),
        grid=grid,
        algorithm=config.algorithm,
    )

    with recorder.span(
        "routing.global",
        wires=num_wires,
        bins=[grid.nx, grid.ny],
        algorithm=config.algorithm,
    ) as span:
        if config.algorithm == "negotiated":
            negotiate_routes(pins, workspace, order, result)
        else:
            _route_ordered(pins, workspace, order, config, recorder, result)
        result.overflowed[:] = [grid.overflows(path) for path in result.paths]
        for index in np.flatnonzero(result.overflowed).tolist():
            recorder.event("routing.overflow", wire=index)
        # One reporting flush per route() call — the maze inner loop only
        # touches workspace integers (null-recorder overhead contract).
        recorder.count("routing.wires_routed", num_wires)
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
            recorder.observe_many("routing.path_bins", [len(path) for path in result.paths])
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
    workspace: MazeWorkspace,
    order: List[int],
    config: RoutingConfig,
    recorder,
    result: RoutingResult,
) -> None:
    """The paper's ordered route into ``result``: relax capacity, then
    never-fail overflow."""
    grid = result.grid
    paths, lengths = result.paths, result.lengths
    starts, goals, same_bin_lengths = pins

    def route_pass(indices: Sequence[int], allow_overflow: bool) -> List[int]:
        """Route ``indices`` in order; returns the failures."""
        still_failed: List[int] = []
        for index in indices:
            start, goal = starts[index], goals[index]
            if start == goal:
                paths[index] = [start]
                lengths[index] = same_bin_lengths[index]
                continue
            path = maze_route(
                grid, start, goal, allow_overflow=allow_overflow, workspace=workspace
            )
            if path is None:
                still_failed.append(index)
                continue
            grid.add_usage(path)
            paths[index] = path
            lengths[index] = grid.path_length_um(path)
        return still_failed

    failed = route_pass(order, allow_overflow=False)
    first_pass_failures = len(failed)

    while failed and result.relax_rounds < config.max_relax_rounds:
        result.relax_rounds += 1
        grid.relax_capacity(RELAX_INCREMENT)
        recorder.event("routing.relax_round", round=result.relax_rounds, failed=len(failed))
        result.ripups += len(failed)
        failed = route_pass(failed, allow_overflow=False)

    # Never-fail final pass: overflow allowed, heavily penalized.
    if failed:
        result.ripups += len(failed)
        remaining = route_pass(failed, allow_overflow=True)
        if remaining:  # pragma: no cover - connected grid always routes
            raise RuntimeError(f"wire {remaining[0]} could not be routed at all")

    recorder.count("routing.first_pass_failures", first_pass_failures)
