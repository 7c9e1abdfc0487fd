"""Legalization: push cells apart to remove residual overlap (Alg. 4 line 7).

Primary method: iterative pairwise separation.  Each pass finds every
overlapping pair of (virtual-dimension) rectangles and pushes the two cells
apart along the axis of least penetration, with displacement shared in
inverse proportion to cell area so large crossbars barely move.  This
preserves the analytic placement's global structure.

Fallback: if the push-apart loop cannot reach the overlap tolerance (a
pathologically dense start), a deterministic row-packing pass produces a
guaranteed-legal placement ordered by the analytic y-then-x coordinates.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.observability import get_recorder
from repro.physical.placement.spatial import PAIRWISE_LIMIT, candidate_pairs
from repro.utils.rng import RngLike, ensure_rng

_SLACK = 1e-3  # extra separation (µm) so legality survives float noise


def _overlap_pairs(
    x: np.ndarray, y: np.ndarray, half_w: np.ndarray, half_h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Indices and penetrations of all overlapping pairs (i < j)."""
    n = x.shape[0]
    if n <= PAIRWISE_LIMIT:
        ii, jj = np.triu_indices(n, k=1)
    else:
        ii, jj = candidate_pairs(x, y, np.maximum(half_w, half_h))
    pen_x = half_w[ii] + half_w[jj] - np.abs(x[ii] - x[jj])
    pen_y = half_h[ii] + half_h[jj] - np.abs(y[ii] - y[jj])
    keep = (pen_x > 0.0) & (pen_y > 0.0)
    return ii[keep], jj[keep], pen_x[keep], pen_y[keep]


def push_apart(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
    max_passes: int = 300,
    tolerance_ratio: float = 1e-3,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Iteratively separate overlapping cells.

    Returns ``(x, y, final_overlap_ratio)`` where the ratio is total
    overlap area over total cell area.
    """
    rng = ensure_rng(rng)
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    widths = np.asarray(widths, dtype=float)
    heights = np.asarray(heights, dtype=float)
    half_w = widths / 2.0
    half_h = heights / 2.0
    areas = widths * heights
    total_area = float(areas.sum())
    if total_area <= 0.0 or x.size < 2:
        return x, y, 0.0

    # Pass/move tallies: local ints in the loop, one recorder flush on
    # every exit (null-recorder overhead contract).
    passes_run = 0
    pair_moves = 0

    def _flush() -> None:
        recorder = get_recorder()
        recorder.count("placement.legalize_passes", passes_run)
        recorder.count("placement.legalize_pair_moves", pair_moves)

    ratio = np.inf
    for _ in range(max_passes):
        passes_run += 1
        ii, jj, pen_x, pen_y = _overlap_pairs(x, y, half_w, half_h)
        if ii.size == 0:
            _flush()
            return x, y, 0.0
        overlap_area = float(np.sum(pen_x * pen_y))
        ratio = overlap_area / total_area
        if ratio <= tolerance_ratio:
            _flush()
            return x, y, ratio
        pair_moves += int(ii.size)
        shift_x = np.zeros_like(x)
        shift_y = np.zeros_like(y)
        # Share each pair's separation inversely to cell area.
        share_i = areas[jj] / (areas[ii] + areas[jj])
        share_j = 1.0 - share_i
        dx = x[ii] - x[jj]
        dy = y[ii] - y[jj]
        # Break exact-tie directions deterministically enough via rng.
        zero_dx = dx == 0.0
        zero_dy = dy == 0.0
        if zero_dx.any():
            dx = dx.copy()
            dx[zero_dx] = rng.choice([-1.0, 1.0], size=int(zero_dx.sum())) * 1e-6
        if zero_dy.any():
            dy = dy.copy()
            dy[zero_dy] = rng.choice([-1.0, 1.0], size=int(zero_dy.sum())) * 1e-6
        move_along_x = pen_x <= pen_y
        amount = np.where(move_along_x, pen_x, pen_y) + _SLACK
        sign_x = np.sign(dx)
        sign_y = np.sign(dy)
        axis_x = move_along_x.astype(float)
        axis_y = 1.0 - axis_x
        np.add.at(shift_x, ii, axis_x * sign_x * amount * share_i)
        np.add.at(shift_x, jj, -axis_x * sign_x * amount * share_j)
        np.add.at(shift_y, ii, axis_y * sign_y * amount * share_i)
        np.add.at(shift_y, jj, -axis_y * sign_y * amount * share_j)
        # Damped Jacobi update: full shifts can overshoot when a cell
        # participates in many pairs.
        x += 0.7 * shift_x
        y += 0.7 * shift_y
    ii, jj, pen_x, pen_y = _overlap_pairs(x, y, half_w, half_h)
    ratio = float(np.sum(pen_x * pen_y)) / total_area if ii.size else 0.0
    _flush()
    return x, y, ratio


def row_pack(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
    aspect_target: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic guaranteed-legal fallback: pack into horizontal rows.

    Cells are ordered by their analytic ``(y, x)`` so the packed layout
    still resembles the optimized one.  Row width targets a square chip.
    """
    widths = np.asarray(widths, dtype=float)
    heights = np.asarray(heights, dtype=float)
    n = widths.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros(0)
    if aspect_target <= 0:
        raise ValueError(f"aspect_target must be > 0, got {aspect_target}")
    total_area = float(np.sum(widths * heights))
    row_width = np.sqrt(total_area * 1.1 * aspect_target)
    row_width = max(row_width, float(widths.max()) + _SLACK)
    order = np.lexsort((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    out_x = np.zeros(n)
    out_y = np.zeros(n)
    cursor_x = 0.0
    cursor_y = 0.0
    row_height = 0.0
    for cell in order:
        w = widths[cell] + _SLACK
        h = heights[cell] + _SLACK
        if cursor_x + w > row_width and cursor_x > 0.0:
            cursor_y += row_height
            cursor_x = 0.0
            row_height = 0.0
        out_x[cell] = cursor_x + w / 2.0
        out_y[cell] = cursor_y + h / 2.0
        cursor_x += w
        row_height = max(row_height, h)
    return out_x, out_y


def grid_snap(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
    fill: float = 0.72,
) -> Tuple[np.ndarray, np.ndarray]:
    """Structure-preserving legalization: nearest-free-site assignment.

    Cells (largest first) are snapped onto an occupancy grid at the free
    site closest to their current position — a Tetris-style legalizer that
    keeps the global structure of a heavily overlapped seed, where
    iterative push-apart diverges and row packing scrambles the order.

    ``fill`` is the target area utilization of the occupancy map; the map
    grows automatically if quantization overhead exhausts it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    widths = np.asarray(widths, dtype=float)
    heights = np.asarray(heights, dtype=float)
    n = x.shape[0]
    if n == 0:
        return x.copy(), y.copy()
    if not 0.0 < fill < 1.0:
        raise ValueError(f"fill must lie in (0, 1), got {fill}")
    resolution = max(float(np.median(np.minimum(widths, heights))), 0.25)
    # Size the map from the *quantized* footprints, so ceil() overhead is
    # already budgeted.
    w_bins_all = np.ceil(widths / resolution).astype(int)
    h_bins_all = np.ceil(heights / resolution).astype(int)
    quantized_area = float(np.sum(w_bins_all * h_bins_all)) * resolution * resolution
    side = np.sqrt(quantized_area / fill)
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
    passes: int = 2,
) -> Tuple[np.ndarray, np.ndarray]:
    """Constraint-graph compaction: squeeze out whitespace, keep order.

    Alternating 1-D scanline compactions along x and y: each cell slides
    toward the origin until it abuts a cell it overlaps in the other axis.
    Legal input stays legal; the bounding box only shrinks.  The O(n²)
    scanline runs over Python lists of the cell extents.
    """
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    widths = np.asarray(widths, dtype=float)
    heights = np.asarray(heights, dtype=float)
    n = x.shape[0]
    if n == 0:
        return x, y
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    for _ in range(passes):
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


def legalize(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
    max_passes: int = 300,
    tolerance_ratio: float = 1e-3,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Remove overlap; push-apart first, row-pack fallback if needed.

    Returns ``(x, y, info)`` with ``info['method']`` and
    ``info['overlap_ratio']`` describing what happened.
    """
    new_x, new_y, ratio = push_apart(
        x, y, widths, heights, max_passes=max_passes, tolerance_ratio=tolerance_ratio, rng=rng
    )
    if ratio <= max(tolerance_ratio, 5e-3):
        return new_x, new_y, {"method": "push_apart", "overlap_ratio": ratio}
    packed_x, packed_y = row_pack(new_x, new_y, widths, heights)
    return packed_x, packed_y, {"method": "row_pack", "overlap_ratio": 0.0}
