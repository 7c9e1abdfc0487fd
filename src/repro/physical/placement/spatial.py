"""Spatial binning for pairwise cell interactions.

The sigmoid density model needs "all pairs of cells that are close enough
to interact".  Full pairwise enumeration is O(n²) and dominates runtime
beyond ~1000 cells, so this module buckets cells into a uniform grid whose
pitch is the largest interaction reach; any interacting pair then lies in
the same or an adjacent bucket.

The candidate set is a superset of the interacting pairs (exact for
rectangle overlap when ``reach`` covers the cell half-extents), so callers
lose no correctness — only the sub-cutoff sigmoid tails, which are
numerically negligible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def candidate_pairs(
    x: np.ndarray,
    y: np.ndarray,
    reach: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices ``(ii, jj)`` of all pairs with ``|Δx|,|Δy| <= reach_i + reach_j``.

    Parameters
    ----------
    reach:
        Per-cell interaction radius along each axis (e.g. half-extent plus
        a smoothing margin).  The bucket pitch is twice the maximum reach,
        so every returned pair is found in the 3×3 bucket neighbourhood.

    Returns a superset of the interacting pairs with ``ii < jj``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    reach = np.asarray(reach, dtype=float)
    n = x.shape[0]
    if n < 2:
        empty = np.zeros(0, dtype=int)
        return empty, empty
    pitch = 2.0 * float(reach.max())
    if pitch <= 0.0:
        empty = np.zeros(0, dtype=int)
        return empty, empty
    bx = np.floor(x / pitch).astype(np.int64)
    by = np.floor(y / pitch).astype(np.int64)
    buckets: Dict[Tuple[int, int], np.ndarray] = {}
    order = np.lexsort((by, bx))
    sorted_bx = bx[order]
    sorted_by = by[order]
    boundaries = np.nonzero(
        (np.diff(sorted_bx) != 0) | (np.diff(sorted_by) != 0)
    )[0]
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [n]])
    for start, end in zip(starts, ends):
        key = (int(sorted_bx[start]), int(sorted_by[start]))
        buckets[key] = order[start:end]
    chunks_i: List[np.ndarray] = []
    chunks_j: List[np.ndarray] = []
    for (cx, cy), members in buckets.items():
        m = members.shape[0]
        # Within-bucket pairs (vectorized upper triangle).
        if m > 1:
            a_idx, b_idx = np.triu_indices(m, k=1)
            chunks_i.append(members[a_idx])
            chunks_j.append(members[b_idx])
        # Pairs with the four "forward" neighbour buckets (covering each
        # adjacent bucket pair exactly once).
        for dx, dy in ((1, 0), (1, 1), (0, 1), (-1, 1)):
            other = buckets.get((cx + dx, cy + dy))
            if other is None:
                continue
            chunks_i.append(np.repeat(members, other.shape[0]))
            chunks_j.append(np.tile(other, m))
    if not chunks_i:
        empty = np.zeros(0, dtype=int)
        return empty, empty
    ii_arr = np.concatenate(chunks_i)
    jj_arr = np.concatenate(chunks_j)
    swap = ii_arr > jj_arr
    ii_arr[swap], jj_arr[swap] = jj_arr[swap], ii_arr[swap].copy()
    # Exact per-pair cutoff filter.
    keep = (np.abs(x[ii_arr] - x[jj_arr]) <= reach[ii_arr] + reach[jj_arr]) & (
        np.abs(y[ii_arr] - y[jj_arr]) <= reach[ii_arr] + reach[jj_arr]
    )
    return ii_arr[keep], jj_arr[keep]


#: Cell count above which pairwise models switch to spatial binning.
PAIRWISE_LIMIT = 600
