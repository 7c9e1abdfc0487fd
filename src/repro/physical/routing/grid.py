"""The routing grid graph (paper Sec. 3.5, after [18]).

The chip region is tessellated into square bins of user-defined width θ;
routing-graph nodes are bins and edges connect 4-neighbours.  Each edge has
a (virtual) capacity — the estimated number of wires it accommodates [17] —
and a usage counter that the maze router updates as wires commit.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple, Union

import numpy as np

BinCoord = Tuple[int, int]


class RoutingGrid:
    """A congestion-tracked grid graph over a rectangular region.

    Parameters
    ----------
    origin:
        ``(x0, y0)`` lower-left corner of the routed region (µm).
    width / height:
        Region extent (µm).
    bin_um:
        Bin width θ.
    capacity:
        Base edge capacity (wires per bin boundary), a whole number ``>= 1``.
    """

    def __init__(
        self,
        origin: Tuple[float, float],
        width: float,
        height: float,
        bin_um: float,
        capacity: int,
    ) -> None:
        if not 0 < bin_um < math.inf:
            raise ValueError(f"bin_um must be finite and > 0, got {bin_um}")
        for name, value in (("width", width), ("height", height)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not all(math.isfinite(value) for value in origin):
            raise ValueError(f"origin must be finite, got {tuple(origin)}")
        if not (capacity >= 1 and capacity % 1 == 0):
            raise ValueError(f"capacity must be a whole number >= 1, got {capacity}")
        self.origin = (float(origin[0]), float(origin[1]))
        self.bin_um = float(bin_um)
        self.nx = max(1, int(math.ceil(width / bin_um)))
        self.ny = max(1, int(math.ceil(height / bin_um)))
        self.base_capacity = int(capacity)
        # horizontal edges: (bx, by) -> (bx+1, by); vertical: (bx, by) -> (bx, by+1)
        self.horizontal_capacity = np.full((max(self.nx - 1, 0), self.ny), capacity, dtype=int)
        self.vertical_capacity = np.full((self.nx, max(self.ny - 1, 0)), capacity, dtype=int)
        self.horizontal_usage = np.zeros_like(self.horizontal_capacity)
        self.vertical_usage = np.zeros_like(self.vertical_capacity)

    # ------------------------------------------------------------------
    def bin_of(
        self, x: Union[float, np.ndarray], y: Union[float, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Column and row of the bin containing point ``(x, y)``, clamped to
        the grid; elementwise over arrays of points."""
        bx = np.clip((np.asarray(x) - self.origin[0]) / self.bin_um, 0, self.nx - 1)
        by = np.clip((np.asarray(y) - self.origin[1]) / self.bin_um, 0, self.ny - 1)
        return bx.astype(np.intp), by.astype(np.intp)

    def bin_center(self, b: BinCoord) -> Tuple[float, float]:
        """Center coordinates of bin ``b`` in µm."""
        return (
            self.origin[0] + (b[0] + 0.5) * self.bin_um,
            self.origin[1] + (b[1] + 0.5) * self.bin_um,
        )

    # ------------------------------------------------------------------
    # Edge bookkeeping — edges are identified by (kind, ex, ey) with kind
    # 'h' (between (ex, ey) and (ex+1, ey)) or 'v' ((ex, ey) to (ex, ey+1)).
    # ------------------------------------------------------------------
    def edge_between(self, a: BinCoord, b: BinCoord) -> Tuple[str, int, int]:
        """Identify the edge joining two adjacent bins."""
        (ax, ay), (bx, by) = a, b
        if ax == bx and abs(ay - by) == 1:
            return ("v", ax, min(ay, by))
        if ay == by and abs(ax - bx) == 1:
            return ("h", min(ax, bx), ay)
        raise ValueError(f"bins {a} and {b} are not adjacent")

    def edge_usage(self, edge: Tuple[str, int, int]) -> int:
        """Current usage of an edge."""
        kind, ex, ey = edge
        if kind == "h":
            return int(self.horizontal_usage[ex, ey])
        return int(self.vertical_usage[ex, ey])

    def edge_capacity(self, edge: Tuple[str, int, int]) -> int:
        """Current (virtual) capacity of an edge."""
        kind, ex, ey = edge
        if kind == "h":
            return int(self.horizontal_capacity[ex, ey])
        return int(self.vertical_capacity[ex, ey])

    def add_usage(self, path: Iterable[BinCoord], amount: int = 1) -> None:
        """Commit (or with negative ``amount``, rip up) a path's edge usage."""
        path = list(path)
        for a, b in zip(path, path[1:]):
            kind, ex, ey = self.edge_between(a, b)
            if kind == "h":
                self.horizontal_usage[ex, ey] += amount
            else:
                self.vertical_usage[ex, ey] += amount

    def relax_capacity(self, increment: int) -> None:
        """Raise every edge's virtual capacity (the rerouting relaxation of [17])."""
        if increment < 1:
            raise ValueError(f"increment must be >= 1, got {increment}")
        self.horizontal_capacity += increment
        self.vertical_capacity += increment

    # ------------------------------------------------------------------
    def path_length_um(self, path: List[BinCoord]) -> float:
        """Length of a bin path: edges × θ."""
        return max(len(path) - 1, 0) * self.bin_um

    def overflowed_edges(self) -> int:
        """Number of edges whose usage exceeds the *base* capacity."""
        h_over = int(np.count_nonzero(self.horizontal_usage > self.base_capacity))
        v_over = int(np.count_nonzero(self.vertical_usage > self.base_capacity))
        return h_over + v_over

    def max_congestion(self) -> float:
        """Peak usage/base-capacity ratio over all edges."""
        values = []
        if self.horizontal_usage.size:
            values.append(float(self.horizontal_usage.max()))
        if self.vertical_usage.size:
            values.append(float(self.vertical_usage.max()))
        if not values:
            return 0.0
        return max(values) / float(self.base_capacity)

    def congestion_map(self) -> np.ndarray:
        """Per-bin total wire count (the Fig. 10(b)/(d) heat map)."""
        total = np.zeros((self.nx, self.ny))
        if self.horizontal_usage.size:
            total[:-1, :] += self.horizontal_usage
            total[1:, :] += self.horizontal_usage
        if self.vertical_usage.size:
            total[:, :-1] += self.vertical_usage
            total[:, 1:] += self.vertical_usage
        return total
