"""Tests for the routing grid, maze router and routing driver."""

import itertools

import numpy as np
import pytest

import repro.physical.routing.router as router_module
from repro.hardware.library import CrossbarLibrary
from repro.hardware.technology import Technology
from repro.mapping import fullcro_mapping
from repro.mapping.netlist import build_netlist
from repro.networks import random_sparse_network
from repro.physical.layout import Placement
from repro.physical.routing.grid import RoutingGrid
from repro.physical.routing.maze import maze_route
from repro.physical.routing.router import RoutingConfig, _routing_order, route


def make_grid(nx_um=40.0, ny_um=40.0, bin_um=4.0, capacity=2):
    return RoutingGrid(origin=(0.0, 0.0), width=nx_um, height=ny_um,
                       bin_um=bin_um, capacity=capacity)


class TestRoutingGrid:
    def test_dimensions(self):
        grid = make_grid()
        assert grid.nx == 10 and grid.ny == 10
        assert grid.horizontal_capacity.shape == (9, 10)
        assert grid.vertical_capacity.shape == (10, 9)

    def test_bin_of_clamps(self):
        grid = make_grid()
        assert grid.bin_of(-5.0, -5.0) == (0, 0)
        assert grid.bin_of(1000.0, 1000.0) == (9, 9)
        assert grid.bin_of(6.0, 10.0) == (1, 2)

    def test_usage_bookkeeping(self):
        grid = make_grid()
        path = [(0, 0), (1, 0), (1, 1), (1, 0)]
        grid.add_usage(path)
        assert grid.horizontal_usage[0, 0] == 1
        assert grid.vertical_usage[1, 0] == 2  # up, then back down
        assert grid.horizontal_usage.sum() + grid.vertical_usage.sum() == 3
        grid.add_usage(path, amount=-1)
        assert not grid.horizontal_usage.any() and not grid.vertical_usage.any()

    def test_add_usage_rejects_non_adjacent_bins(self):
        grid = make_grid()
        for step in ([(0, 0), (2, 0)], [(3, 4), (4, 5)], [(2, 2), (2, 2)]):
            with pytest.raises(ValueError, match="not adjacent"):
                grid.add_usage(step)

    @pytest.mark.parametrize("capacity", [0, 2.5, float("nan")])
    def test_rejects_fractional_or_nan_capacity(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            RoutingGrid((0, 0), 10, 10, 2.0, capacity)

    @pytest.mark.parametrize("bin_um", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_bin_width(self, bin_um):
        with pytest.raises(ValueError, match="bin_um"):
            RoutingGrid((0, 0), 10, 10, bin_um, 2)

    @pytest.mark.parametrize("name", ["width", "height"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_extent(self, name, value):
        extent = {"width": 10.0, "height": 10.0, name: value}
        with pytest.raises(ValueError, match=name):
            RoutingGrid((0, 0), bin_um=2.0, capacity=2, **extent)

    @pytest.mark.parametrize("origin", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_rejects_non_finite_origin(self, origin):
        with pytest.raises(ValueError, match="origin"):
            RoutingGrid(origin, 10, 10, 2.0, 2)

    def test_bin_of_is_elementwise(self):
        grid = make_grid()
        bx, by = grid.bin_of(np.array([-5.0, 1000.0, 6.0]), np.array([-5.0, 1000.0, 10.0]))
        assert bx.tolist() == [0, 9, 1] and by.tolist() == [0, 9, 2]

    def test_relax_capacity(self):
        grid = make_grid(capacity=2)
        grid.relax_capacity(3)
        assert (grid.horizontal_capacity == 5).all() and (grid.vertical_capacity == 5).all()
        assert grid.base_capacity == 2

    def test_path_length(self):
        grid = make_grid(bin_um=4.0)
        assert grid.path_length_um([(0, 0), (1, 0), (2, 0)]) == pytest.approx(8.0)

    def test_congestion_map_shape(self):
        grid = make_grid()
        grid.add_usage([(0, 0), (1, 0)])
        cmap = grid.congestion_map()
        assert cmap.shape == (10, 10)
        assert cmap[0, 0] == 1 and cmap[1, 0] == 1

    def test_overflow_count(self):
        grid = make_grid(capacity=1)
        grid.add_usage([(0, 0), (1, 0)])
        grid.add_usage([(0, 0), (1, 0)])
        grid.add_usage([(3, 3), (3, 4)])
        paths = [[(2, 0), (1, 0), (0, 0)], [(1, 0), (2, 0)], [(3, 4), (3, 3)], [(5, 5)]]
        assert [grid.overflows(path) for path in paths] == [True, False, False, False]
        grid.relax_capacity(4)  # the rule reads the base capacity, not the relaxed one
        assert grid.overflows(paths[0])
        grid.add_usage([(3, 3), (3, 4)])
        assert grid.overflows(paths[2])
        assert grid.max_congestion() == pytest.approx(2.0)


class TestMazeRoute:
    def test_straight_path(self):
        grid = make_grid()
        path = maze_route(grid, (0, 0), (5, 0))
        assert path[0] == (0, 0) and path[-1] == (5, 0)
        assert len(path) == 6  # monotone straight line

    def test_same_bin(self):
        grid = make_grid()
        path = maze_route(grid, (3, 3), (3, 3))
        assert path == [(3, 3)]

    def test_detours_around_congestion(self):
        grid = make_grid(capacity=1)
        # saturate the direct horizontal corridor at y=0
        for bx in range(9):
            grid.add_usage([(bx, 0), (bx + 1, 0)])
        path = maze_route(grid, (0, 0), (9, 0))
        assert path is not None
        # must leave row 0 somewhere
        assert any(b[1] != 0 for b in path)

    def test_blocked_fails_without_overflow(self):
        grid = RoutingGrid((0, 0), 12.0, 4.0, 4.0, capacity=1)  # 3x1 grid
        grid.add_usage([(0, 0), (1, 0)])  # saturate the only edge
        assert maze_route(grid, (0, 0), (2, 0)) is None

    def test_blocked_succeeds_with_overflow(self):
        grid = RoutingGrid((0, 0), 12.0, 4.0, 4.0, capacity=1)
        grid.add_usage([(0, 0), (1, 0)])
        path = maze_route(grid, (0, 0), (2, 0), allow_overflow=True)
        assert path == [(0, 0), (1, 0), (2, 0)]

    def test_window_fallback_to_full_grid(self):
        grid = make_grid(capacity=1)
        # wall of saturated vertical edges around the window
        for bx in range(0, 7):
            grid.add_usage([(bx, 4), (bx, 5)])
        path = maze_route(grid, (2, 2), (2, 7), window_margin=1)
        assert path is not None


class TestRouteDriver:
    @pytest.fixture()
    def placed_design(self):
        library = CrossbarLibrary()
        netlist = build_netlist(6, [], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], library)
        n = netlist.num_cells
        rng = np.random.default_rng(0)
        placement = Placement(
            x=rng.random(n) * 60,
            y=rng.random(n) * 60,
            widths=netlist.widths,
            heights=netlist.heights,
        )
        return netlist, placement

    def test_all_wires_routed(self, placed_design):
        netlist, placement = placed_design
        result = route(netlist, placement)
        assert len(result.paths) == netlist.num_wires
        assert result.total_wirelength_um >= 0.0

    def test_lengths_ordered_by_wire_index(self, placed_design):
        netlist, placement = placed_design
        result = route(netlist, placement)
        assert result.lengths.shape == result.overflowed.shape == (netlist.num_wires,)
        assert result.lengths.dtype == np.float64 and result.overflowed.dtype == bool
        grid = result.grid
        for index, path in enumerate(result.paths):
            source = netlist.sources[index]
            assert path[0] == grid.bin_of(placement.x[source], placement.y[source])
            if len(path) > 1:
                assert result.lengths[index] == grid.path_length_um(path)

    def test_congestion_map_available(self, placed_design):
        netlist, placement = placed_design
        result = route(netlist, placement)
        assert result.congestion_map().ndim == 2

    def test_tight_capacity_relaxes(self, placed_design):
        netlist, placement = placed_design
        technology = Technology(routing_bin_um=30.0, routing_capacity_per_bin=1)
        config = RoutingConfig(max_relax_rounds=4)
        result = route(netlist, placement, technology=technology, config=config)
        assert len(result.paths) == netlist.num_wires

    def test_mismatched_placement_rejected(self, placed_design):
        netlist, _ = placed_design
        bad = Placement(x=np.zeros(2), y=np.zeros(2), widths=np.ones(2), heights=np.ones(2))
        with pytest.raises(ValueError, match="cells"):
            route(netlist, bad)

    def test_config_validation(self):
        for rounds in (-1, float("nan"), 2.5, float("inf")):
            with pytest.raises(ValueError, match="max_relax_rounds"):
                RoutingConfig(max_relax_rounds=rounds)

    def test_coarsening_scales_grid_and_capacity(self, placed_design, monkeypatch):
        # A die wider than MAX_GRID_BINS bins triggers the coarsening
        # branch: θ grows, capacity rescales with the merge factor.
        netlist, placement = placed_design
        monkeypatch.setattr(router_module, "MAX_GRID_BINS", 8)
        technology = Technology(routing_bin_um=2.0, routing_capacity_per_bin=2)
        result = route(netlist, placement, technology=technology)
        grid = result.grid
        assert grid.bin_um > technology.routing_bin_um
        # The routed region is the bounding box + 1 margin bin per side.
        assert grid.nx <= 8 + 2
        assert grid.ny <= 8 + 2
        # span ≈ 60 µm over 8 bins of 2 µm → scale ≈ 3.75, capacity 2 → 8ish
        assert grid.base_capacity > technology.routing_capacity_per_bin
        assert len(result.paths) == netlist.num_wires

    def test_coarsening_capacity_rounds_to_at_least_one(self, placed_design, monkeypatch):
        # int(round(capacity * scale)) at scale ≈ 1: capacity 1 must
        # survive the rescale as 1, never drop to 0.
        netlist, placement = placed_design
        span = max(
            placement.x.max() - placement.x.min(),
            placement.y.max() - placement.y.min(),
        )
        bins = 16
        monkeypatch.setattr(router_module, "MAX_GRID_BINS", bins)
        # bin_um chosen so span/bin_um is barely above MAX_GRID_BINS.
        technology = Technology(
            routing_bin_um=span / (bins + 0.05), routing_capacity_per_bin=1
        )
        result = route(netlist, placement, technology=technology)
        assert result.grid.base_capacity == 1
        assert len(result.paths) == netlist.num_wires

    def test_never_fail_overflow_pass(self):
        # Zero relax rounds + capacity 1 on a single shared corridor: the
        # final allow-overflow pass must still route everything and report
        # the overflowed wires.
        library = CrossbarLibrary()
        pairs = [(i, i + 6) for i in range(6)]
        netlist = build_netlist(12, [], pairs, library)
        x = np.concatenate([np.full(6, 2.0), np.full(6, 58.0), np.full(6, 30.0)])
        y = np.full(netlist.num_cells, 2.0)
        placement = Placement(
            x=x, y=y, widths=netlist.widths, heights=netlist.heights
        )
        technology = Technology(routing_bin_um=10.0, routing_capacity_per_bin=1)
        config = RoutingConfig(max_relax_rounds=0)
        result = route(netlist, placement, technology=technology, config=config)
        assert len(result.paths) == netlist.num_wires
        assert result.relax_rounds == 0
        assert result.overflow_wires > 0
        assert result.overflow_wires == int(result.overflowed.sum())

    @pytest.mark.parametrize("algorithm, relax_rounds", [("ordered", 4), ("negotiated", 0)])
    def test_overflow_flags_follow_one_rule(self, algorithm, relax_rounds):
        # A FullCro netlist in a 30 µm square at capacity 1.  After four
        # relaxations the ordered router used to flag none of the wires
        # that cross an edge past the base capacity; both must flag them all.
        netlist = fullcro_mapping(random_sparse_network(30, 0.15, rng=0)).netlist
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 30, netlist.num_cells)
        y = rng.uniform(0, 30, netlist.num_cells)
        placement = Placement(x=x, y=y, widths=netlist.widths, heights=netlist.heights)
        technology = Technology(routing_capacity_per_bin=1)
        config = RoutingConfig(max_relax_rounds=5, algorithm=algorithm)
        result = route(netlist, placement, technology=technology, config=config)
        assert result.relax_rounds == relax_rounds
        # Recount edge usage from the paths, without the grid's bookkeeping.
        usage = {}
        edges = [
            [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])] for path in result.paths
        ]
        for edge in itertools.chain.from_iterable(edges):
            usage[edge] = usage.get(edge, 0) + 1
        over = [any(usage[edge] > 1 for edge in path_edges) for path_edges in edges]
        assert result.overflowed.tolist() == over
        assert result.overflow_wires == sum(over) == 58

    def test_routing_order_dtype_invariant(self, placed_design):
        # The order golden fixtures depend on must not change with the
        # placement's floating dtype (float32 platforms vs float64).
        netlist, placement = placed_design
        p32 = Placement(
            x=placement.x.astype(np.float32),
            y=placement.y.astype(np.float32),
            widths=placement.widths,
            heights=placement.heights,
        )
        assert _routing_order(netlist, placement) == _routing_order(netlist, p32)

    def test_routing_order_empty_netlist(self):
        library = CrossbarLibrary()
        netlist = build_netlist(3, [], [], library)
        placement = Placement(
            x=np.zeros(3), y=np.zeros(3),
            widths=netlist.widths, heights=netlist.heights,
        )
        assert _routing_order(netlist, placement) == []

    def test_routing_order_weight_tiebreak(self):
        # Two wires whose closest pins are equidistant from the gravity
        # center: the heavier wire routes first.
        library = CrossbarLibrary()
        netlist = build_netlist(4, [], [(0, 1), (2, 3)], library)
        n = netlist.num_cells
        x = np.linspace(0.0, 30.0, n)
        placement = Placement(
            x=x, y=np.zeros(n),
            widths=netlist.widths, heights=netlist.heights,
        )
        order = _routing_order(netlist, placement)
        assert sorted(order) == list(range(netlist.num_wires))

    def test_routed_length_at_least_manhattan_bins(self, placed_design):
        netlist, placement = placed_design
        result = route(netlist, placement)
        grid = result.grid
        for index, length in enumerate(result.lengths):
            source, target = netlist.sources[index], netlist.targets[index]
            start = grid.bin_of(placement.x[source], placement.y[source])
            goal = grid.bin_of(placement.x[target], placement.y[target])
            manhattan = (abs(start[0] - goal[0]) + abs(start[1] - goal[1])) * grid.bin_um
            if start != goal:
                assert length >= manhattan - 1e-9
