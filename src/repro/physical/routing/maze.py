"""Maze routing (paper Sec. 3.5, after Lee [16]) as windowed A*.

Classic maze routing is a BFS wave expansion; with congestion-dependent
edge costs it generalizes to Dijkstra/A*.  We search inside a window (the
pins' bounding box plus a margin) for speed, falling back to the full grid
when the window has no path, and treat edges at capacity as blocked unless
the caller allows overflow (used by the final never-fail pass).

The inner search runs on flat numpy arrays reused across calls (an epoch
counter invalidates stale state instead of reallocating), which keeps the
per-wire cost low enough to route tens of thousands of wires in seconds.
Per-target heuristic arrays are memoized on the workspace
(:meth:`MazeWorkspace.heuristic`), so repeated searches toward the same
goal bin — fan-in wires, relax-round retries, rip-up reroutes — reuse one
vectorized build instead of recomputing the Manhattan term per neighbour.

The same wave expansion also serves the negotiated-congestion router
(:mod:`repro.physical.routing.negotiated`): passing ``present_weight``
switches the edge cost to the PathFinder form
``θ · (1 + history) · (1 + present_weight · overuse)`` where the history
arrays live on the :class:`MazeWorkspace` (``ensure_history``) and
``overuse`` counts how far past capacity the edge would go if this wire
were added.  Edges are then never blocked — congestion is negotiated
through rising present costs and accumulated history, not hard walls.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from repro.physical.routing.grid import BinCoord, RoutingGrid

#: Per-target heuristic arrays kept on a workspace before FIFO eviction
#: (bounds memory on grids where nearly every bin is some wire's goal).
_HEURISTIC_CACHE_LIMIT = 256


class MazeWorkspace:
    """Reusable per-grid search state (g-scores, parents, epochs).

    Also accumulates search statistics (``heap_pushes``, ``heap_pops``,
    ``visited_bins``, ``searches``) as plain integer adds — the router
    reports the totals to the current observability recorder once per
    :func:`~repro.physical.routing.router.route` call, keeping the inner
    loop free of instrumentation calls.
    """

    def __init__(self, grid: RoutingGrid) -> None:
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
        # Negotiated-congestion history costs (dimensionless multiples of
        # θ), allocated lazily so the ordered router pays nothing.
        self.h_history: Optional[np.ndarray] = None
        self.v_history: Optional[np.ndarray] = None
        # Per-target memoized heuristic arrays (flat, float64) and their
        # build/hit accounting — see :meth:`heuristic`.
        self._heuristic_cache: Dict[int, np.ndarray] = {}
        self.heuristic_builds = 0
        self.heuristic_hits = 0

    def begin(self) -> None:
        """Start a fresh search; previous state becomes stale by epoch."""
        self.epoch += 1
        self.searches += 1

    def ensure_history(self) -> "tuple[np.ndarray, np.ndarray]":
        """The per-edge history-cost arrays, allocating them on first use."""
        if self.h_history is None:
            self.h_history = np.zeros(self.grid.horizontal_usage.shape)
            self.v_history = np.zeros(self.grid.vertical_usage.shape)
        return self.h_history, self.v_history

    def heuristic(self, goal_flat: int) -> np.ndarray:
        """The flat Manhattan-distance heuristic toward ``goal_flat``.

        Built vectorized once per distinct target and memoized (FIFO
        eviction beyond ``_HEURISTIC_CACHE_LIMIT`` entries), so searches
        that repeat a goal bin — fan-in wires, relax retries, rip-up
        reroutes — skip the rebuild.  Values are bit-identical to the
        scalar ``(|Δx| + |Δy|) · θ`` form: integer distances are exact
        in float64, so one multiply by θ matches the inline expression.
        """
        cached = self._heuristic_cache.get(goal_flat)
        if cached is not None:
            self.heuristic_hits += 1
            return cached
        grid = self.grid
        gx, gy = goal_flat // grid.ny, goal_flat % grid.ny
        bx = np.arange(grid.nx, dtype=np.int64)[:, None]
        by = np.arange(grid.ny, dtype=np.int64)[None, :]
        table = ((np.abs(bx - gx) + np.abs(by - gy)) * grid.bin_um).ravel()
        if len(self._heuristic_cache) >= _HEURISTIC_CACHE_LIMIT:
            self._heuristic_cache.pop(next(iter(self._heuristic_cache)))
        self._heuristic_cache[goal_flat] = table
        self.heuristic_builds += 1
        return table


def maze_route(
    grid: RoutingGrid,
    start: BinCoord,
    goal: BinCoord,
    window_margin: int = 8,
    congestion_weight: float = 2.0,
    allow_overflow: bool = False,
    overflow_penalty: float = 10.0,
    workspace: Optional[MazeWorkspace] = None,
    present_weight: Optional[float] = None,
) -> Optional[List[BinCoord]]:
    """Find a min-cost bin path from ``start`` to ``goal``.

    Edge cost is ``θ · (1 + congestion_weight · usage/capacity)``; an edge
    at capacity is impassable unless ``allow_overflow`` is set, in which
    case it costs an extra factor ``overflow_penalty``.

    With ``present_weight`` set the search instead uses the negotiated
    (PathFinder) cost ``θ · (1 + history) · (1 + present_weight ·
    overuse)`` against the workspace's history arrays; edges are never
    blocked in that mode.

    The grid's usage is left untouched; callers commit the returned path.

    Returns the bin path including both endpoints, or ``None`` when no
    path exists under the current capacities (with ``allow_overflow`` or
    ``present_weight`` a path always exists on a connected grid).
    """
    if window_margin < 0:
        raise ValueError(f"window_margin must be >= 0, got {window_margin}")
    if workspace is None:
        workspace = MazeWorkspace(grid)
    path = _a_star(
        grid, start, goal, window_margin, congestion_weight,
        allow_overflow, overflow_penalty, workspace, present_weight,
    )
    if path is None and window_margin < max(grid.nx, grid.ny):
        # Window too tight (congestion detour outside it) — search the full grid.
        path = _a_star(
            grid, start, goal, max(grid.nx, grid.ny), congestion_weight,
            allow_overflow, overflow_penalty, workspace, present_weight,
        )
    return path


def _a_star(
    grid: RoutingGrid,
    start: BinCoord,
    goal: BinCoord,
    window_margin: int,
    congestion_weight: float,
    allow_overflow: bool,
    overflow_penalty: float,
    ws: MazeWorkspace,
    present_weight: Optional[float] = None,
) -> Optional[List[BinCoord]]:
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
    # Search statistics: plain local ints, flushed onto the workspace at
    # every exit so the router can report them (null-recorder contract:
    # no recorder calls inside the wave expansion).
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
        # unrolled 4-neighbour expansion
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
                # PathFinder cost: congestion is priced, never blocked.
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
