"""Edge cases of the maze search, plus the heuristic memo.

Covers unreachable targets, source == target, zero-capacity edges,
single-row grids, workspace reuse across consecutive searches (stale
visited/history bins), the grid-usage contract of ``maze_route`` (the
caller commits paths), and the per-target heuristic memoization
(identical results, fewer recomputations).
"""

import numpy as np
import pytest

from repro.physical.routing.grid import RoutingGrid
from repro.physical.routing.maze import (
    _HEURISTIC_CACHE_LIMIT,
    MazeWorkspace,
    maze_route,
)


def make_grid(nx_um=40.0, ny_um=40.0, bin_um=4.0, capacity=2):
    return RoutingGrid(origin=(0.0, 0.0), width=nx_um, height=ny_um,
                       bin_um=bin_um, capacity=capacity)


class TestUnreachableTarget:
    def test_fully_blocked_grid_returns_none(self):
        grid = make_grid(capacity=1)
        grid.horizontal_usage += grid.horizontal_capacity
        grid.vertical_usage += grid.vertical_capacity
        ws = MazeWorkspace(grid)
        assert maze_route(grid, (0, 0), (5, 5), workspace=ws) is None

    def test_walled_off_target(self):
        # Saturate only the edges adjacent to the goal bin's column.
        grid = make_grid(capacity=1)
        goal = (9, 9)
        grid.horizontal_usage[8, :] = grid.horizontal_capacity[8, :]
        grid.vertical_usage[9, :] = grid.vertical_capacity[9, :]
        ws = MazeWorkspace(grid)
        assert maze_route(grid, (0, 0), goal, workspace=ws) is None
        # allow_overflow turns the wall back into a (priced) corridor.
        assert maze_route(
            grid, (0, 0), goal, allow_overflow=True, workspace=ws
        ) is not None

    def test_failed_search_leaves_usage_untouched(self):
        grid = make_grid(capacity=1)
        grid.horizontal_usage += grid.horizontal_capacity
        grid.vertical_usage += grid.vertical_capacity
        before_h = grid.horizontal_usage.copy()
        ws = MazeWorkspace(grid)
        assert maze_route(grid, (0, 0), (5, 5), workspace=ws) is None
        assert np.array_equal(grid.horizontal_usage, before_h)


class TestUsageContract:
    def test_successful_search_leaves_usage_untouched(self):
        # maze_route's contract: the caller commits the returned path.
        grid = make_grid()
        ws = MazeWorkspace(grid)
        assert maze_route(grid, (0, 0), (5, 5), workspace=ws) is not None
        assert grid.horizontal_usage.sum() == 0
        assert grid.vertical_usage.sum() == 0


class TestSourceEqualsTarget:
    def test_trivial_path(self):
        grid = make_grid()
        ws = MazeWorkspace(grid)
        assert maze_route(grid, (3, 3), (3, 3), workspace=ws) == [(3, 3)]

    def test_trivial_path_commits_nothing(self):
        grid = make_grid()
        ws = MazeWorkspace(grid)
        assert maze_route(grid, (3, 3), (3, 3), workspace=ws) == [(3, 3)]
        assert grid.horizontal_usage.sum() == 0
        assert grid.vertical_usage.sum() == 0


class TestZeroCapacityEdge:
    def test_blocked_edge_is_routed_around(self):
        # RoutingGrid enforces capacity >= 1 at construction; a
        # zero-capacity edge models a routing blockage and can only be
        # produced by mutating the capacity array directly.
        grid = make_grid(capacity=2)
        grid.horizontal_capacity[4, 5] = 0
        ws = MazeWorkspace(grid)
        path = maze_route(grid, (4, 5), (5, 5), workspace=ws)
        assert path is not None
        assert ((4, 5), (5, 5)) not in set(zip(path, path[1:]))

    def test_zero_capacity_row_blocks_crossing(self):
        grid = make_grid(capacity=1)
        grid.vertical_capacity[:, 4] = 0  # no edge crosses y=4 -> y=5
        ws = MazeWorkspace(grid)
        assert maze_route(grid, (0, 0), (0, 9), workspace=ws) is None


class TestSingleRowGrid:
    def test_route_along_one_row(self):
        grid = make_grid(ny_um=4.0)  # ny == 1: no vertical edges at all
        assert grid.ny == 1
        assert grid.vertical_usage.shape[1] == 0
        ws = MazeWorkspace(grid)
        path = maze_route(grid, (0, 0), (9, 0), workspace=ws)
        assert path == [(x, 0) for x in range(10)]

    def test_single_row_blockage_is_fatal(self):
        grid = make_grid(ny_um=4.0, capacity=1)
        grid.horizontal_usage[4, 0] = 1
        ws = MazeWorkspace(grid)
        assert maze_route(grid, (0, 0), (9, 0), workspace=ws) is None

    def test_single_column_grid(self):
        grid = make_grid(nx_um=4.0)
        assert grid.nx == 1
        ws = MazeWorkspace(grid)
        path = maze_route(grid, (0, 0), (0, 9), workspace=ws)
        assert path == [(0, y) for y in range(10)]


class TestWorkspaceReuse:
    def test_consecutive_searches_do_not_leak_state(self):
        # Stale visited/g-score/parent bins from search N must be
        # invisible to search N+1 (epoch stamping) — compare against a
        # fresh workspace per search.
        grid = make_grid()
        shared = MazeWorkspace(grid)
        cases = [((0, 0), (9, 9)), ((9, 0), (0, 9)), ((5, 5), (0, 0)),
                 ((0, 9), (9, 9)), ((3, 7), (7, 3))]
        for start, goal in cases:
            expected = maze_route(grid, start, goal,
                                  workspace=MazeWorkspace(grid))
            assert maze_route(grid, start, goal, workspace=shared) == expected

    def test_usage_change_between_searches_is_seen(self):
        # The second search must observe usage committed after the
        # first — stale cached costs would reuse the old corridor.
        grid = make_grid(capacity=1)
        ws = MazeWorkspace(grid)
        first = maze_route(grid, (0, 5), (9, 5), workspace=ws)
        grid.add_usage(first)
        second = maze_route(grid, (0, 5), (9, 5), workspace=ws)
        assert second is not None
        assert second != first  # the straight corridor is now full


class TestHeuristicMemo:
    def test_repeat_goal_builds_once(self):
        grid = make_grid()
        ws = MazeWorkspace(grid)
        first = maze_route(grid, (0, 0), (9, 9), workspace=ws)
        assert ws.heuristic_builds == 1
        second = maze_route(grid, (2, 2), (9, 9), workspace=ws)
        # Same goal bin: the heuristic table is reused, not rebuilt.
        assert ws.heuristic_builds == 1
        assert ws.heuristic_hits >= 1
        assert first is not None and second is not None

    def test_memoized_results_identical_to_fresh(self):
        grid = make_grid()
        shared = MazeWorkspace(grid)
        for start in ((0, 0), (1, 5), (8, 2)):
            expected = maze_route(grid, start, (9, 9),
                                  workspace=MazeWorkspace(grid))
            assert maze_route(grid, start, (9, 9), workspace=shared) == expected

    def test_distinct_goals_build_distinct_tables(self):
        grid = make_grid()
        ws = MazeWorkspace(grid)
        maze_route(grid, (0, 0), (9, 9), workspace=ws)
        maze_route(grid, (0, 0), (5, 5), workspace=ws)
        assert ws.heuristic_builds == 2

    def test_cache_eviction_bounds_memory(self):
        grid = make_grid()
        ws = MazeWorkspace(grid)
        goals = [(x, y) for x in range(10) for y in range(10)]
        for goal in goals:
            ws.heuristic(goal[0] * grid.ny + goal[1])
        assert len(ws._heuristic_cache) <= _HEURISTIC_CACHE_LIMIT

    def test_table_values_match_inline_expression(self):
        grid = make_grid()
        ws = MazeWorkspace(grid)
        goal = (7, 3)
        table = ws.heuristic(goal[0] * grid.ny + goal[1])
        for bx in range(grid.nx):
            for by in range(grid.ny):
                inline = (abs(bx - goal[0]) + abs(by - goal[1])) * grid.bin_um
                assert table[bx * grid.ny + by] == inline  # bitwise


class TestWindowFallback:
    def test_zero_margin_falls_back_to_full_grid(self):
        # A congestion detour outside a zero-margin window forces the
        # full-grid retry, which counts as a second search.
        grid = make_grid(capacity=1)
        grid.horizontal_usage[4, 5] = 1  # block the straight corridor
        ws = MazeWorkspace(grid)
        path = maze_route(grid, (0, 5), (9, 5), window_margin=0, workspace=ws)
        assert path is not None
        assert ws.searches == 2
        with pytest.raises(ValueError, match="window_margin"):
            maze_route(grid, (0, 5), (9, 5), window_margin=-1, workspace=ws)
