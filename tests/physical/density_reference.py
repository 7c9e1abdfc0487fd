"""Test-local references for the placement density kernel.

The brute-force cutoff pairs (every pair ``i < j``, tested one rule, in
``np.triu_indices`` order) and the per-call density body the kernel
replaced: ``sigmoid_overlap`` over the pairs and four ``np.add.at``
scatters.  The density suites pin the kernel to both.
"""

import numpy as np

from repro.physical.placement.density import sigmoid_overlap


def reach(widths, heights, tau):
    """The cutoff reach per cell, ``max(w/2, h/2) + 4τ``."""
    return np.maximum(np.asarray(widths) / 2.0, np.asarray(heights) / 2.0) + 4.0 * tau


def cutoff_pairs(x, y, widths, heights, tau):
    """Brute force: the pairs ``i < j`` inside the cutoff, in row-major order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    limit = reach(widths, heights, tau)
    ii, jj = np.triu_indices(x.shape[0], k=1)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance is outside
        inside = (np.abs(x[ii] - x[jj]) <= limit[ii] + limit[jj]) & (
            np.abs(y[ii] - y[jj]) <= limit[ii] + limit[jj]
        )
    return ii[inside], jj[inside]


def per_call_density(x, y, widths, heights, tau, ii, jj):
    """The per-call density body over the given pairs: ``(value, grad_x, grad_y)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grad_x = np.zeros_like(x)
    grad_y = np.zeros_like(y)
    half_w = np.asarray(widths, dtype=float) / 2.0
    half_h = np.asarray(heights, dtype=float) / 2.0
    ii = np.asarray(ii, dtype=int)
    jj = np.asarray(jj, dtype=int)
    if ii.size == 0:
        return 0.0, grad_x, grad_y
    dx = x[ii] - x[jj]
    dy = y[ii] - y[jj]
    hx = half_w[ii] + half_w[jj]
    hy = half_h[ii] + half_h[jj]
    ox = sigmoid_overlap(dx, hx, tau)
    oy = sigmoid_overlap(dy, hy, tau)
    value = float(np.sum(ox * oy))
    soft_abs_x = np.sqrt(dx * dx + 1e-6)
    soft_abs_y = np.sqrt(dy * dy + 1e-6)
    dox = -(ox * (1.0 - ox) / tau) * (dx / soft_abs_x)
    doy = -(oy * (1.0 - oy) / tau) * (dy / soft_abs_y)
    gx_pair = dox * oy
    gy_pair = doy * ox
    np.add.at(grad_x, ii, gx_pair)
    np.add.at(grad_x, jj, -gx_pair)
    np.add.at(grad_y, ii, gy_pair)
    np.add.at(grad_y, jj, -gy_pair)
    return value, grad_x, grad_y


def assert_identical(actual, expected):
    """Value and both gradients equal bit for bit."""
    assert actual[0] == expected[0]
    np.testing.assert_array_equal(actual[1], expected[1])
    np.testing.assert_array_equal(actual[2], expected[2])
