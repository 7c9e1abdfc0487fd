"""Legalization: remove residual overlap (Alg. 4 line 7), then compact.

Both placers legalize the same way.  :func:`grid_snap` assigns every cell
(largest first) the free occupancy-grid site nearest its current
position, which keeps the global structure of the optimized layout and
never fails: the map grows until every cell fits.  :func:`compact` then
slides cells toward the origin to squeeze out the whitespace the grid
left, without reordering them, so a legal layout stays legal.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Target area utilization of the grid-snap occupancy map; the map grows
#: when quantization overhead exhausts it.
SNAP_FILL = 0.72

#: Alternating x/y scanline passes of :func:`compact`.
COMPACTION_PASSES = 2


def grid_snap(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Structure-preserving legalization: nearest-free-site assignment.

    Cells (largest first) are snapped onto an occupancy grid at the free
    site closest to their current position — a Tetris-style legalizer that
    keeps the global structure of even a heavily overlapped seed.  The map
    starts at :data:`SNAP_FILL` utilization and grows until every cell fits.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    widths = np.asarray(widths, dtype=float)
    heights = np.asarray(heights, dtype=float)
    n = x.shape[0]
    if n == 0:
        return x.copy(), y.copy()
    resolution = max(float(np.median(np.minimum(widths, heights))), 0.25)
    # Size the map from the *quantized* footprints, so ceil() overhead is
    # already budgeted.
    w_bins_all = np.ceil(widths / resolution).astype(int)
    h_bins_all = np.ceil(heights / resolution).astype(int)
    quantized_area = float(np.sum(w_bins_all * h_bins_all)) * resolution * resolution
    side = np.sqrt(quantized_area / SNAP_FILL)
    side = max(side, float(widths.max()) + resolution, float(heights.max()) + resolution)
    while True:
        bins = int(np.ceil(side / resolution)) + 2
        occupied = np.zeros((bins, bins), dtype=bool)
        sx = x - x.min()
        sy = y - y.min()
        if sx.max() > 0:
            sx = sx / sx.max() * (side - resolution)
        if sy.max() > 0:
            sy = sy / sy.max() * (side - resolution)
        offsets = [
            (dx, dy)
            for dx in range(-bins, bins + 1)
            for dy in range(-bins, bins + 1)
        ]
        offsets.sort(key=lambda o: o[0] * o[0] + o[1] * o[1])
        new_x = np.zeros(n)
        new_y = np.zeros(n)
        order = np.argsort(-(widths * heights))
        failed = False
        for i in order:
            wb = int(w_bins_all[i])
            hb = int(h_bins_all[i])
            bx0 = int(sx[i] / resolution)
            by0 = int(sy[i] / resolution)
            for dx, dy in offsets:
                ax = bx0 + dx
                ay = by0 + dy
                if ax < 0 or ay < 0 or ax + wb > bins or ay + hb > bins:
                    continue
                if not occupied[ax : ax + wb, ay : ay + hb].any():
                    occupied[ax : ax + wb, ay : ay + hb] = True
                    new_x[i] = (ax + wb / 2.0) * resolution
                    new_y[i] = (ay + hb / 2.0) * resolution
                    break
            else:
                failed = True
                break
        if not failed:
            return new_x, new_y
        side *= 1.2  # grow the map and retry


def compact(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Constraint-graph compaction: squeeze out whitespace, keep order.

    :data:`COMPACTION_PASSES` rounds of alternating 1-D scanline
    compactions along x and y: each cell slides toward the origin until it
    abuts a cell it overlaps in the other axis.  Legal input stays legal;
    the bounding box only shrinks.  The O(n²) scanline runs over Python
    lists of the cell extents.
    """
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    widths = np.asarray(widths, dtype=float)
    heights = np.asarray(heights, dtype=float)
    n = x.shape[0]
    if n == 0:
        return x, y
    for _ in range(COMPACTION_PASSES):
        for axis in (0, 1):
            if axis == 0:
                primary, secondary, p_dim, s_dim = x, y, widths, heights
            else:
                primary, secondary, p_dim, s_dim = y, x, heights, widths
            low = primary - p_dim / 2.0
            order = np.argsort(low)
            s_lo = (secondary - s_dim / 2.0).tolist()
            s_hi = (secondary + s_dim / 2.0).tolist()
            extent = p_dim.tolist()
            new_low = [0.0] * n
            placed: list = []
            for i in order.tolist():
                hi = s_hi[i] - 1e-9
                lo = s_lo[i] + 1e-9
                base = 0.0
                for j in placed:
                    if s_lo[j] < hi and s_hi[j] > lo:
                        top = new_low[j] + extent[j]
                        if top > base:  # max(base, top), keeping base on ties
                            base = top
                new_low[i] = base
                placed.append(i)
            if axis == 0:
                x = np.array(new_low) + widths / 2.0
            else:
                y = np.array(new_low) + heights / 2.0
    return x, y

