"""Initial placement: regular locations (Algorithm 4 line 1).

Cells are packed area-aware into rows (so mixed-size cells start at most
lightly overlapped — a uniform grid pitched for the *average* cell buries
the big crossbars under dozens of neighbours), then compressed toward the
region center so the penalty loop starts from the moderate-overlap state
the λ-doubling schedule expects.  A small deterministic jitter breaks
symmetry ties.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

#: Initial-region inflation over the total virtual cell area.  The analytic
#: placer also sizes its γ and τ from the side of this region, and the
#: annealing placer starts from it.
WHITESPACE_FACTOR = 1.8


def _row_pack_by_size(
    widths: np.ndarray, heights: np.ndarray, row_width: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack cells (largest first) into rows of the given width."""
    n = widths.shape[0]
    order = np.argsort(widths * heights)[::-1]
    x = np.zeros(n)
    y = np.zeros(n)
    cursor_x = 0.0
    cursor_y = 0.0
    row_height = 0.0
    for cell in order:
        w = widths[cell]
        h = heights[cell]
        if cursor_x + w > row_width and cursor_x > 0.0:
            cursor_y += row_height
            cursor_x = 0.0
            row_height = 0.0
        x[cell] = cursor_x + w / 2.0
        y[cell] = cursor_y + h / 2.0
        cursor_x += w
        row_height = max(row_height, h)
    return x, y


def initial_placement(
    widths: np.ndarray,
    heights: np.ndarray,
    whitespace_factor: float = WHITESPACE_FACTOR,
    rng: RngLike = None,
    compression: float = 0.75,
) -> Tuple[np.ndarray, np.ndarray]:
    """Area-aware starting coordinates for the analytic placer.

    Parameters
    ----------
    compression:
        Factor < 1 shrinks the packed layout toward its center, producing
        the moderate starting overlap the penalty loop resolves; 1.0
        starts fully packed (near-zero overlap).

    Returns
    -------
    (x, y):
        Center coordinates (µm).
    """
    widths = np.asarray(widths, dtype=float)
    heights = np.asarray(heights, dtype=float)
    if widths.shape != heights.shape or widths.ndim != 1:
        raise ValueError("widths and heights must be equal-length 1-D arrays")
    if not whitespace_factor >= 1.0:
        raise ValueError(f"whitespace_factor must be >= 1, got {whitespace_factor}")
    if not 0.0 < compression <= 1.0:
        raise ValueError(f"compression must lie in (0, 1], got {compression}")
    rng = ensure_rng(rng)
    n = widths.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros(0)
    total_area = float(np.sum(widths * heights))
    side = math.sqrt(max(total_area, 1e-9) * whitespace_factor)
    side = max(side, float(widths.max()))
    x, y = _row_pack_by_size(widths, heights, side)
    center_x = float(x.mean())
    center_y = float(y.mean())
    x = center_x + (x - center_x) * compression
    y = center_y + (y - center_y) * compression
    jitter_scale = 0.02 * float(np.sqrt(widths * heights).mean())
    x += rng.uniform(-jitter_scale, jitter_scale, size=n)
    y += rng.uniform(-jitter_scale, jitter_scale, size=n)
    return x, y
