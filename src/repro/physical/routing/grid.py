"""The routing grid graph (paper Sec. 3.5, after [18]).

The chip region is tessellated into square bins of user-defined width θ;
routing-graph nodes are bins and edges connect 4-neighbours.  Each edge has
a (virtual) capacity — the estimated number of wires it accommodates [17] —
and a usage counter that the routers update as wires commit.  Usage and
capacity live in one array per direction, indexed by edge arithmetic (see
:meth:`RoutingGrid.add_usage`); :meth:`RoutingGrid.overflows` is the one
rule for a path crossing an edge past the base capacity.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_whole_number

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
        capacity = check_whole_number("capacity", capacity)
        self.origin = (float(origin[0]), float(origin[1]))
        self.bin_um = float(bin_um)
        self.nx = max(1, int(math.ceil(width / bin_um)))
        self.ny = max(1, int(math.ceil(height / bin_um)))
        self.base_capacity = capacity
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

    # ------------------------------------------------------------------
    # Edge bookkeeping.  A step between bins (ax, ay) and (bx, by) crosses
    # horizontal edge (min(ax, bx), ay) when ay == by, else vertical edge
    # (ax, min(ay, by)).
    # ------------------------------------------------------------------
    def add_usage(self, path: Iterable[BinCoord], amount: int = 1) -> None:
        """Commit (or with negative ``amount``, rip up) a path's edge usage.

        Raises ``ValueError`` at the first step between non-adjacent bins.
        """
        path = list(path)
        for (ax, ay), (bx, by) in zip(path, path[1:]):
            if ay == by and abs(ax - bx) == 1:
                self.horizontal_usage[min(ax, bx), ay] += amount
            elif ax == bx and abs(ay - by) == 1:
                self.vertical_usage[ax, min(ay, by)] += amount
            else:
                raise ValueError(f"bins {(ax, ay)} and {(bx, by)} are not adjacent")

    def overflows(self, path: Sequence[BinCoord]) -> bool:
        """True when an edge on ``path`` carries more wires than the base
        capacity — the one over-capacity rule of both routers."""
        limit = self.base_capacity
        for (ax, ay), (bx, by) in zip(path, path[1:]):
            if ay == by:
                usage = self.horizontal_usage[min(ax, bx), ay]
            else:
                usage = self.vertical_usage[ax, min(ay, by)]
            if usage > limit:
                return True
        return False

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
