"""The list-based maze search and ``compact`` reproduce their numpy forms.

``maze._a_star`` and ``legalize.compact`` run over Python lists copied out
of the grid and the coordinate arrays.  The references below are the
numpy-scalar bodies they replaced, with the numpy workspace the search
used.  On hypothesis-drawn grids, sequences of searches sharing one
workspace (with the found paths committed between them) must give the
same paths and the same search counters; ``compact`` must give the same
coordinates, byte for byte.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.physical.placement.legalize as legalize
import repro.physical.routing.maze as maze_module
from repro.physical.placement.legalize import compact, grid_snap
from repro.physical.routing.grid import RoutingGrid
from repro.physical.routing.maze import MazeWorkspace, maze_route


class _NumpyWorkspace:
    """Reference: the search state as flat numpy arrays, as it used to be."""

    def __init__(self, grid):
        size = grid.nx * grid.ny
        self.grid = grid
        self.g_score = np.zeros(size)
        self.parent = np.full(size, -1, dtype=np.int64)
        self.stamp = np.zeros(size, dtype=np.int64)
        self.closed = np.zeros(size, dtype=np.int64)
        self.epoch = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.visited_bins = 0
        self.searches = 0
        self.h_history = None
        self.v_history = None
        self._heuristic_cache = {}
        self.heuristic_builds = 0
        self.heuristic_hits = 0

    def begin(self):
        self.epoch += 1
        self.searches += 1

    def ensure_history(self):
        if self.h_history is None:
            self.h_history = np.zeros(self.grid.horizontal_usage.shape)
            self.v_history = np.zeros(self.grid.vertical_usage.shape)
        return self.h_history, self.v_history

    def heuristic(self, goal_flat):
        cached = self._heuristic_cache.get(goal_flat)
        if cached is not None:
            self.heuristic_hits += 1
            return cached
        grid = self.grid
        gx, gy = goal_flat // grid.ny, goal_flat % grid.ny
        bx = np.arange(grid.nx, dtype=np.int64)[:, None]
        by = np.arange(grid.ny, dtype=np.int64)[None, :]
        table = ((np.abs(bx - gx) + np.abs(by - gy)) * grid.bin_um).ravel()
        if len(self._heuristic_cache) >= maze_module._HEURISTIC_CACHE_LIMIT:
            self._heuristic_cache.pop(next(iter(self._heuristic_cache)))
        self._heuristic_cache[goal_flat] = table
        self.heuristic_builds += 1
        return table


def _numpy_a_star(grid, start, goal, window_margin, congestion_weight,
                  allow_overflow, overflow_penalty, ws, present_weight=None):
    """Reference: the A* body that read numpy scalars per neighbour."""
    nx, ny = grid.nx, grid.ny
    lo_x = max(0, min(start[0], goal[0]) - window_margin)
    hi_x = min(nx - 1, max(start[0], goal[0]) + window_margin)
    lo_y = max(0, min(start[1], goal[1]) - window_margin)
    hi_y = min(ny - 1, max(start[1], goal[1]) + window_margin)
    theta = grid.bin_um
    gx, gy = goal
    h_usage = grid.horizontal_usage
    v_usage = grid.vertical_usage
    h_capacity = grid.horizontal_capacity
    v_capacity = grid.vertical_capacity
    negotiated = present_weight is not None
    if negotiated:
        h_history, v_history = ws.ensure_history()

    ws.begin()
    epoch = ws.epoch
    g_score = ws.g_score
    parent = ws.parent
    stamp = ws.stamp
    closed = ws.closed

    start_flat = start[0] * ny + start[1]
    goal_flat = gx * ny + gy
    heur = ws.heuristic(goal_flat)
    g_score[start_flat] = 0.0
    stamp[start_flat] = epoch
    parent[start_flat] = -1
    pushes = 1
    pops = 0
    visited = 0
    open_heap = [(heur[start_flat], start_flat)]
    while open_heap:
        _, current = heapq.heappop(open_heap)
        pops += 1
        if current == goal_flat:
            flat_path = [current]
            while parent[current] != -1:
                current = parent[current]
                flat_path.append(current)
            flat_path.reverse()
            ws.heap_pushes += pushes
            ws.heap_pops += pops
            ws.visited_bins += visited
            return [(int(f // ny), int(f % ny)) for f in flat_path]
        if closed[current] == epoch:
            continue
        closed[current] = epoch
        visited += 1
        cx, cy = current // ny, current % ny
        current_g = g_score[current]
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nbx = cx + dx
            nby = cy + dy
            if not (lo_x <= nbx <= hi_x and lo_y <= nby <= hi_y):
                continue
            neighbor = nbx * ny + nby
            if closed[neighbor] == epoch:
                continue
            if dx != 0:
                ex = cx if dx > 0 else nbx
                usage, capacity = h_usage[ex, cy], h_capacity[ex, cy]
                history = h_history[ex, cy] if negotiated else 0.0
            else:
                ey = cy if dy > 0 else nby
                usage, capacity = v_usage[cx, ey], v_capacity[cx, ey]
                history = v_history[cx, ey] if negotiated else 0.0
            if negotiated:
                overuse = usage + 1 - capacity
                step = theta * (1.0 + history)
                if overuse > 0:
                    step *= 1.0 + present_weight * overuse
            elif usage >= capacity:
                if not allow_overflow:
                    continue
                step = theta * (1.0 + congestion_weight) * overflow_penalty
            else:
                step = theta * (1.0 + congestion_weight * (usage / capacity))
            tentative = current_g + step
            if stamp[neighbor] != epoch or tentative < g_score[neighbor]:
                g_score[neighbor] = tentative
                stamp[neighbor] = epoch
                parent[neighbor] = current
                heapq.heappush(open_heap, (tentative + heur[neighbor], neighbor))
                pushes += 1
    ws.heap_pushes += pushes
    ws.heap_pops += pops
    ws.visited_bins += visited
    return None


def _numpy_maze_route(grid, start, goal, window_margin, congestion_weight,
                      allow_overflow, overflow_penalty, ws, present_weight):
    """Reference ``maze_route``: the window search, then the full grid."""
    args = (congestion_weight, allow_overflow, overflow_penalty, ws, present_weight)
    path = _numpy_a_star(grid, start, goal, window_margin, *args)
    if path is None and window_margin < max(grid.nx, grid.ny):
        path = _numpy_a_star(grid, start, goal, max(grid.nx, grid.ny), *args)
    return path


_COUNTERS = (
    "heap_pushes", "heap_pops", "visited_bins", "searches",
    "heuristic_builds", "heuristic_hits",
)


@st.composite
def _routing_cases(draw):
    """A congested grid, search settings and a sequence of searches."""
    nx = draw(st.integers(1, 20))
    ny = draw(st.integers(1, 20))
    # Capacities that are not powers of two make usage/capacity inexact.
    capacity = draw(st.sampled_from([3, 5]) | st.integers(1, 6))
    theta = draw(st.sampled_from([2.5]) | st.floats(0.1, 10.0))
    grid = RoutingGrid(
        (0.0, 0.0), (nx - 0.5) * theta, (ny - 0.5) * theta, bin_um=theta, capacity=capacity
    )
    assert (grid.nx, grid.ny) == (nx, ny)
    for usage, cap in (
        (grid.horizontal_usage, grid.horizontal_capacity),
        (grid.vertical_usage, grid.vertical_capacity),
    ):
        if not cap.size:
            continue
        # Usage from idle to past capacity; some edges get no capacity.
        usage[...] = np.array(draw(st.lists(
            st.sampled_from(range(capacity + 3)), min_size=cap.size, max_size=cap.size
        ))).reshape(cap.shape)
        zero = np.array(draw(st.lists(
            st.sampled_from([False, False, False, True]), min_size=cap.size, max_size=cap.size
        ))).reshape(cap.shape)
        cap[zero] = 0
    present_weight = draw(st.none() | st.floats(0.1, 3.0))
    history = None
    if present_weight is not None:
        history = [
            np.array(draw(st.lists(
                st.sampled_from([0.0, 0.4]) | st.floats(0.0, 5.0),
                min_size=usage.size, max_size=usage.size,
            ))).reshape(usage.shape)
            for usage in (grid.horizontal_usage, grid.vertical_usage)
        ]
    # Pins from a few bins, so goals repeat and the heuristic memo hits.
    pins = draw(st.lists(
        st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), min_size=1, max_size=5
    ))
    pin = st.sampled_from(pins)
    searches = draw(st.lists(st.tuples(pin, pin), min_size=1, max_size=10))
    settings_ = {
        "window_margin": draw(st.integers(0, 8)),
        "congestion_weight": draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 5.0)),
        "allow_overflow": draw(st.booleans()),
        "overflow_penalty": draw(st.sampled_from([1.0, 10.0]) | st.floats(1.0, 20.0)),
        "present_weight": present_weight,
    }
    return grid, history, searches, settings_


class TestMazeEquivalence:
    @settings(max_examples=250, deadline=None)
    @given(case=_routing_cases(), cache_limit=st.sampled_from([1, 2, 256]))
    def test_searches_match_numpy_body(self, case, cache_limit):
        grid, history, searches, options = case
        reference = _NumpyWorkspace(grid)
        workspace = MazeWorkspace(grid)
        if history is not None:
            for ws in (reference, workspace):
                for target, values in zip(ws.ensure_history(), history):
                    target[...] = values
        with pytest.MonkeyPatch.context() as patch:
            # A small memo also runs the heuristic's FIFO eviction.
            patch.setattr(maze_module, "_HEURISTIC_CACHE_LIMIT", cache_limit)
            for start, goal in searches:
                expected = _numpy_maze_route(
                    grid, start, goal, options["window_margin"],
                    options["congestion_weight"], options["allow_overflow"],
                    options["overflow_penalty"], reference, options["present_weight"],
                )
                actual = maze_route(grid, start, goal, workspace=workspace, **options)
                assert actual == expected
                for name in _COUNTERS:
                    assert getattr(workspace, name) == getattr(reference, name), name
                # Every bin the search reached has the same cost and parent.
                live = np.flatnonzero(reference.stamp == reference.epoch)
                assert [workspace.stamp[i] for i in live] == [workspace.epoch] * live.size
                assert [workspace.g_score[i] for i in live] == reference.g_score[live].tolist()
                assert [workspace.parent[i] for i in live] == reference.parent[live].tolist()
                if actual is not None:
                    grid.add_usage(actual)  # the next search sees this wire


def _numpy_compact(x, y, widths, heights, passes=2):
    """Reference: the scanline compaction over numpy scalars."""
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    widths = np.asarray(widths, dtype=float)
    heights = np.asarray(heights, dtype=float)
    n = x.shape[0]
    if n == 0:
        return x, y
    for _ in range(passes):
        for axis in (0, 1):
            if axis == 0:
                primary, secondary, p_dim, s_dim = x, y, widths, heights
            else:
                primary, secondary, p_dim, s_dim = y, x, heights, widths
            low = primary - p_dim / 2.0
            order = np.argsort(low)
            new_low = np.zeros(n)
            placed = []
            for i in order:
                lo = secondary[i] - s_dim[i] / 2.0
                hi = secondary[i] + s_dim[i] / 2.0
                base = 0.0
                for j in placed:
                    if (secondary[j] - s_dim[j] / 2.0) < hi - 1e-9 and (
                        secondary[j] + s_dim[j] / 2.0
                    ) > lo + 1e-9:
                        base = max(base, new_low[j] + p_dim[j])
                new_low[i] = base
                placed.append(i)
            if axis == 0:
                x = new_low + widths / 2.0
            else:
                y = new_low + heights / 2.0
    return x, y


_SIZES = st.sampled_from([1.0, 2.5]) | st.floats(0.1, 8.0)
_COORDS = st.sampled_from([0.0, 3.0]) | st.floats(-20.0, 20.0)


@st.composite
def _layouts(draw):
    """Cells at overlapping positions, or snapped to a legal layout."""
    n = draw(st.integers(0, 40))
    vector = st.lists(_COORDS, min_size=n, max_size=n).map(np.array)
    widths = draw(st.lists(_SIZES, min_size=n, max_size=n).map(np.array))
    heights = draw(st.lists(_SIZES, min_size=n, max_size=n).map(np.array))
    x, y = draw(vector), draw(vector)
    if n and draw(st.booleans()):
        x, y = grid_snap(x, y, widths, heights)
    return x, y, widths, heights, draw(st.integers(1, 3))


class TestCompactEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(layout=_layouts())
    def test_matches_numpy_body(self, layout):
        x, y, widths, heights, passes = layout
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(legalize, "COMPACTION_PASSES", passes)
            actual = compact(x, y, widths, heights)
        expected = _numpy_compact(x, y, widths, heights, passes=passes)
        assert actual[0].tobytes() == expected[0].tobytes()
        assert actual[1].tobytes() == expected[1].tobytes()
