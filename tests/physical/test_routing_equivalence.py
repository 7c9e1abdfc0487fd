"""Both routers fill the per-wire arrays exactly as their old result objects.

The ordered router used to keep one ``RoutedWire`` object per wire in a
dict that it sorted at the end, and the negotiated router a pair of dicts
that ``route`` re-wrapped wire by wire; two rules decided "this path
crosses an over-capacity edge", one through the grid's ``("h", ex, ey)``
edge tuples, one through boolean overuse masks.  The references below are
that code: the old ``route`` body with its counter flush, both result
paths, both rules and the grid's tuple-keyed ``add_usage``.  The
negotiated reference ends with the router's later detour pass, appended
as it stands, so the rounds before it stay pinned bit for bit.  Its flags
follow today's one rule: once either router returns, every wire whose
path crosses an edge past the base capacity is flagged and reported by a
``routing.overflow`` event, in wire order.  Every check
routes one placed netlist through the reference and through ``route`` on
separate grids and asserts equal paths, byte-equal lengths, equal overflow
flags, counts, total-wirelength reprs, metrics and trace spans, and
byte-equal grid usage and capacity arrays.  Inputs: hypothesis-drawn
netlists under low capacities that force relax rounds, the overflow pass
and rip-ups, the tb1–tb3 AutoNCS netlists and FullCro netlists.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutoNCS
from repro.core.config import fast_config
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.hardware.library import CrossbarLibrary
from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.mapping import autoncs_mapping, fullcro_mapping
from repro.mapping.netlist import CrossbarInstance, build_netlist
from repro.networks import random_sparse_network
from repro.observability import get_recorder, recording
from repro.physical.layout import Placement
from repro.physical.placement.placer import place
from repro.physical.routing import maze, negotiated
from repro.physical.routing import router as router_module
from repro.physical.routing.grid import RoutingGrid
from repro.physical.routing.maze import MazeWorkspace
from repro.physical.routing.router import (
    ROUTING_ALGORITHMS,
    RoutingConfig,
    _routing_order,
    _wire_pins,
    route,
)

LIBRARY = CrossbarLibrary()


# ----------------------------------------------------------------------
# Reference: the old result objects, edge API, rules and result paths
# ----------------------------------------------------------------------
@dataclass
class _OldRoutedWire:
    wire_index: int
    path: list
    length_um: float
    overflowed: bool = False


@dataclass
class _OldRoutingResult:
    wires: List[_OldRoutedWire]
    grid: RoutingGrid
    relax_rounds: int
    overflow_wires: int
    algorithm: str = "ordered"
    ripup_iterations: int = 0
    ripups: int = 0

    @property
    def total_wirelength_um(self) -> float:
        return float(sum(w.length_um for w in self.wires))

    @property
    def lengths(self) -> np.ndarray:
        ordered = sorted(self.wires, key=lambda w: w.wire_index)
        return np.array([w.length_um for w in ordered])


def _old_edge_between(a, b):
    (ax, ay), (bx, by) = a, b
    if ax == bx and abs(ay - by) == 1:
        return ("v", ax, min(ay, by))
    if ay == by and abs(ax - bx) == 1:
        return ("h", min(ax, bx), ay)
    raise ValueError(f"bins {a} and {b} are not adjacent")


def _old_edge_usage(grid, edge):
    kind, ex, ey = edge
    if kind == "h":
        return int(grid.horizontal_usage[ex, ey])
    return int(grid.vertical_usage[ex, ey])


def _old_add_usage(grid, path, amount=1):
    path = list(path)
    for a, b in zip(path, path[1:]):
        kind, ex, ey = _old_edge_between(a, b)
        if kind == "h":
            grid.horizontal_usage[ex, ey] += amount
        else:
            grid.vertical_usage[ex, ey] += amount


def _old_path_overflows(grid, path):
    for a, b in zip(path, path[1:]):
        if _old_edge_usage(grid, _old_edge_between(a, b)) > grid.base_capacity:
            return True
    return False


def _old_crosses_overuse(path, over_h, over_v):
    for a, b in zip(path, path[1:]):
        (ax, ay), (bx, by) = a, b
        if ay == by:
            if over_h[min(ax, bx), ay]:
                return True
        elif over_v[ax, min(ay, by)]:
            return True
    return False


def _old_route_ordered(pins, grid, workspace, order, config, recorder):
    routed: Dict[int, _OldRoutedWire] = {}
    starts, goals, same_bin_lengths = pins

    def try_route(index, allow_overflow) -> Optional[_OldRoutedWire]:
        start, goal = starts[index], goals[index]
        if start == goal:
            return _OldRoutedWire(index, [start], same_bin_lengths[index])
        path = maze.maze_route(
            grid, start, goal, allow_overflow=allow_overflow, workspace=workspace
        )
        if path is None:
            return None
        _old_add_usage(grid, path)
        return _OldRoutedWire(index, path, grid.path_length_um(path))

    def route_pass(indices: Sequence[int], allow_overflow: bool) -> List[int]:
        still_failed = []
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
        grid.relax_capacity(router_module.RELAX_INCREMENT)
        recorder.event("routing.relax_round", round=relax_rounds, failed=len(failed))
        ripup_retries += len(failed)
        failed = route_pass(failed, allow_overflow=False)
    if failed:
        ripup_retries += len(failed)
        remaining = route_pass(failed, allow_overflow=True)
        assert not remaining
    recorder.count("routing.first_pass_failures", first_pass_failures)
    return _OldRoutingResult(
        wires=[routed[i] for i in sorted(routed)],
        grid=grid,
        relax_rounds=relax_rounds,
        overflow_wires=0,
        algorithm="ordered",
        ripups=ripup_retries,
    )


def _old_negotiate_routes(pins, grid, workspace, order):
    h_history, v_history = workspace.ensure_history()
    present = negotiated.PRESENT_WEIGHT
    paths: Dict[int, list] = {}
    lengths: Dict[int, float] = {}
    starts, goals, same_bin_lengths = pins

    def search(index):
        start, goal = starts[index], goals[index]
        if start == goal:
            paths[index] = [start]
            lengths[index] = same_bin_lengths[index]
            return
        path = maze.maze_route(grid, start, goal, workspace=workspace, present_weight=present)
        assert path is not None
        _old_add_usage(grid, path)
        paths[index] = path
        lengths[index] = grid.path_length_um(path)

    for index in order:
        search(index)
    iterations = 0
    ripups = 0
    for _ in range(negotiated.MAX_RIPUP_ITERATIONS):
        over_h = grid.horizontal_usage > grid.horizontal_capacity
        over_v = grid.vertical_usage > grid.vertical_capacity
        if not (over_h.any() or over_v.any()):
            break
        iterations += 1
        h_history += negotiated.HISTORY_INCREMENT * np.maximum(
            grid.horizontal_usage - grid.horizontal_capacity, 0
        )
        v_history += negotiated.HISTORY_INCREMENT * np.maximum(
            grid.vertical_usage - grid.vertical_capacity, 0
        )
        victims = [
            index
            for index in order
            if len(paths[index]) > 1 and _old_crosses_overuse(paths[index], over_h, over_v)
        ]
        for index in victims:
            _old_add_usage(grid, paths[index], amount=-1)
        ripups += len(victims)
        present *= negotiated.PRESENT_GROWTH
        for index in victims:
            search(index)
    # The detour pass that followed the old rounds: each wire longer than
    # its pin bins' Manhattan distance is re-routed once by the shortest
    # path under base capacity, and kept when shorter.
    for index in order:
        path, start, goal = paths[index], starts[index], goals[index]
        if len(path) - 1 <= abs(start[0] - goal[0]) + abs(start[1] - goal[1]):
            continue
        _old_add_usage(grid, path, amount=-1)
        shorter = maze.maze_route(grid, start, goal, congestion_weight=0.0, workspace=workspace)
        if shorter is not None and len(shorter) < len(path):
            path = shorter
            paths[index] = path
            lengths[index] = grid.path_length_um(path)
        _old_add_usage(grid, path)
    return paths, lengths, iterations, ripups


def _old_route_negotiated(pins, grid, workspace, order):
    paths, lengths, iterations, ripups = _old_negotiate_routes(pins, grid, workspace, order)
    return _OldRoutingResult(
        wires=[_OldRoutedWire(index, paths[index], lengths[index]) for index in sorted(paths)],
        grid=grid,
        relax_rounds=0,
        overflow_wires=0,
        algorithm="negotiated",
        ripup_iterations=iterations,
        ripups=ripups,
    )


def _old_route(netlist, placement, technology, config):
    bin_um = technology.routing_bin_um
    capacity = technology.routing_capacity_per_bin
    xmin, ymin, xmax, ymax = placement.bounding_box()
    span = max(xmax - xmin, ymax - ymin, bin_um)
    if span / bin_um > router_module.MAX_GRID_BINS:
        scale = span / (bin_um * router_module.MAX_GRID_BINS)
        bin_um *= scale
        capacity = max(1, int(round(capacity * scale)))
    margin = router_module.REGION_MARGIN_BINS * bin_um
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
            result = _old_route_negotiated(pins, grid, workspace, order)
        else:
            result = _old_route_ordered(pins, grid, workspace, order, config, recorder)
        # The one flag rule, applied once to every wire after either router.
        for wire in result.wires:
            wire.overflowed = _old_path_overflows(grid, wire.path)
            if wire.overflowed:
                result.overflow_wires += 1
                recorder.event("routing.overflow", wire=wire.wire_index)
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
            recorder.observe_many("routing.path_bins", [len(w.path) for w in result.wires])
            recorder.gauge("routing.total_wirelength_um", result.total_wirelength_um)
        span.annotate(
            ripup_retries=result.ripups,
            relax_rounds=result.relax_rounds,
            ripup_iterations=result.ripup_iterations,
            overflow_wires=result.overflow_wires,
            heap_pushes=workspace.heap_pushes,
        )
    return result


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def _spans(recorder):
    return [(span.name, span.attributes, span.depth) for span in recorder.tracer.spans]


def _assert_same_routing(netlist, placement, technology, config):
    """Route through both; assert equal results.  Returns the new result."""
    with recording() as new_recorder:
        new = route(netlist, placement, technology=technology, config=config)
    with recording() as old_recorder:
        old = _old_route(netlist, placement, technology, config)
    assert [w.wire_index for w in old.wires] == list(range(netlist.num_wires))
    assert new.algorithm == old.algorithm
    assert new.paths == [w.path for w in old.wires]
    assert new.lengths.dtype == old.lengths.dtype == np.float64
    assert new.lengths.tobytes() == old.lengths.tobytes()
    assert new.overflowed.dtype == bool
    assert new.overflowed.tolist() == [bool(w.overflowed) for w in old.wires]
    assert (new.relax_rounds, new.ripups, new.ripup_iterations, new.overflow_wires) == (
        old.relax_rounds,
        old.ripups,
        old.ripup_iterations,
        old.overflow_wires,
    )
    assert repr(new.total_wirelength_um) == repr(old.total_wirelength_um)
    assert new.grid.base_capacity == old.grid.base_capacity
    for name in ("horizontal_usage", "vertical_usage", "horizontal_capacity", "vertical_capacity"):
        mine, theirs = getattr(new.grid, name), getattr(old.grid, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes(), name
    assert new_recorder.snapshot().to_dict() == old_recorder.snapshot().to_dict()
    assert _spans(new_recorder) == _spans(old_recorder)
    return new


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def placed_netlists(draw, max_neurons=24):
    """A netlist with crossbars and synapses, placed at random in a square
    small enough that low capacities congest it."""
    n = draw(st.integers(2, max_neurons))
    instances = []
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.sampled_from(LIBRARY.sizes))
        neurons = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, size, 8))
        rows = tuple(draw(neurons))
        cols = rows if draw(st.booleans()) else tuple(draw(neurons))
        instances.append(CrossbarInstance(rows=rows, cols=cols, size=size, connections=()))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    synapses = draw(st.lists(pair, max_size=30))
    netlist = build_netlist(n, instances, synapses, LIBRARY)
    side = draw(st.sampled_from([6.0, 15.0, 40.0, 120.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    placement = Placement(
        x=rng.random(netlist.num_cells) * side,
        y=rng.random(netlist.num_cells) * side,
        widths=netlist.widths,
        heights=netlist.heights,
    )
    return netlist, placement


technologies = st.builds(
    Technology,
    routing_bin_um=st.sampled_from([1.5, 4.0, 10.0]),
    routing_capacity_per_bin=st.sampled_from([1, 2, 3, 40]),
)


@settings(max_examples=150)
@given(
    placed_netlists(),
    technologies,
    st.sampled_from(ROUTING_ALGORITHMS),
    st.integers(0, 5),
)
def test_random_designs_route_identically(design, technology, algorithm, relax_rounds):
    netlist, placement = design
    config = RoutingConfig(max_relax_rounds=relax_rounds, algorithm=algorithm)
    _assert_same_routing(netlist, placement, technology, config)


def _fullcro_in_a_square(neurons, density, side, seed):
    netlist = fullcro_mapping(random_sparse_network(neurons, density, rng=seed)).netlist
    rng = np.random.default_rng(seed)
    placement = Placement(
        x=rng.random(netlist.num_cells) * side,
        y=rng.random(netlist.num_cells) * side,
        widths=netlist.widths,
        heights=netlist.heights,
    )
    return netlist, placement


UNIT_CAPACITY = Technology(routing_capacity_per_bin=1)


@pytest.mark.parametrize(
    "relax_rounds, reaches",
    [(5, "relax_rounds"), (1, "overflow_wires"), (0, "overflow_wires")],
)
def test_congested_ordered_route_relaxes_and_overflows(relax_rounds, reaches):
    netlist, placement = _fullcro_in_a_square(30, 0.15, 30.0, seed=0)
    config = RoutingConfig(max_relax_rounds=relax_rounds)
    result = _assert_same_routing(netlist, placement, UNIT_CAPACITY, config)
    assert getattr(result, reaches) > 0 and result.ripups > 0


def test_congested_negotiated_route_rips_up_and_overflows(monkeypatch):
    netlist, placement = _fullcro_in_a_square(30, 0.15, 30.0, seed=0)
    config = RoutingConfig(algorithm="negotiated")
    result = _assert_same_routing(netlist, placement, UNIT_CAPACITY, config)
    assert result.ripup_iterations > 0 and result.ripups > 0
    monkeypatch.setattr(negotiated, "MAX_RIPUP_ITERATIONS", 1)
    result = _assert_same_routing(netlist, placement, UNIT_CAPACITY, config)
    assert result.overflow_wires > 0


@pytest.mark.parametrize("algorithm", ROUTING_ALGORITHMS)
@pytest.mark.parametrize("neurons, density", [(60, 0.08), (120, 0.05)])
def test_fullcro_netlists_route_identically(algorithm, neurons, density):
    netlist, placement = _fullcro_in_a_square(neurons, density, 150.0, seed=neurons)
    _assert_same_routing(netlist, placement, DEFAULT_TECHNOLOGY, RoutingConfig(algorithm=algorithm))


@pytest.fixture(scope="module")
def placed_testbenches():
    """tb1–tb3 at N = 120: clustered, mapped and placed with the fast config."""
    flow = AutoNCS(fast_config())
    designs = {}
    for index in (1, 2, 3):
        network = build_testbench(scaled_testbench(index, 120), rng=31).network
        netlist = autoncs_mapping(flow.cluster(network, rng=17), library=flow.library).netlist
        designs[index] = (netlist, place(netlist, config=flow.config.placement, rng=17))
    return designs


@pytest.mark.parametrize("capacity", [DEFAULT_TECHNOLOGY.routing_capacity_per_bin, 4])
@pytest.mark.parametrize("algorithm", ROUTING_ALGORITHMS)
@pytest.mark.parametrize("index", [1, 2, 3])
def test_testbench_netlists_route_identically(
    placed_testbenches, index, algorithm, capacity, monkeypatch
):
    netlist, placement = placed_testbenches[index]
    if capacity < DEFAULT_TECHNOLOGY.routing_capacity_per_bin:
        # Congested negotiation runs every round it may; three keep it short.
        monkeypatch.setattr(negotiated, "MAX_RIPUP_ITERATIONS", 3)
    technology = Technology(routing_capacity_per_bin=capacity)
    config = RoutingConfig(max_relax_rounds=2, algorithm=algorithm)
    _assert_same_routing(netlist, placement, technology, config)
