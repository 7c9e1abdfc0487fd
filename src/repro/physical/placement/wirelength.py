"""Weighted-average (WA) wirelength model (paper eq. (1), from [13]).

HPWL is nonconvex and non-differentiable, so the placer minimizes the WA
approximation instead.  For a wire ``e`` with pin coordinates ``x_v`` the
smooth max/min estimates are::

    max ≈ Σ x·exp(x/γ) / Σ exp(x/γ)      min ≈ Σ x·exp(-x/γ) / Σ exp(-x/γ)

and ``WL = Σ_e w_e [ (max_x - min_x) + (max_y - min_y) ]`` with user wire
weights ``w_e``.  γ controls smoothness: WA → HPWL as γ → 0.

All wires in the AutoNCS netlist are 2-pin, so the implementation is
vectorized over wire endpoint arrays; exponent stabilization (subtracting
the per-wire max) keeps it finite for any coordinate range.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def hpwl(
    x: np.ndarray,
    y: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Exact (weighted) half-perimeter wirelength for 2-pin wires."""
    dx = np.abs(x[sources] - x[targets])
    dy = np.abs(y[sources] - y[targets])
    if weights is None:
        return float(np.sum(dx + dy))
    return float(np.sum(weights * (dx + dy)))


def _wa_axis(
    a: np.ndarray, b: np.ndarray, gamma: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-wire WA span along one axis plus gradients w.r.t. the two pins.

    Returns ``(span, d_span/da, d_span/db)`` for 2-pin wires with pin
    coordinates ``a`` and ``b``.
    """
    # Smooth-max part: stabilized by the per-wire max.
    m = np.maximum(a, b)
    ea = np.exp((a - m) / gamma)
    eb = np.exp((b - m) / gamma)
    denom_max = ea + eb
    smooth_max = (a * ea + b * eb) / denom_max
    # Smooth-min part: stabilized by the per-wire min.
    mn = np.minimum(a, b)
    fa = np.exp((mn - a) / gamma)
    fb = np.exp((mn - b) / gamma)
    denom_min = fa + fb
    smooth_min = (a * fa + b * fb) / denom_min
    span = smooth_max - smooth_min
    # d smooth_max / d a = (ea/denom)·[1 + (a - smooth_max)/γ]
    dmax_da = (ea / denom_max) * (1.0 + (a - smooth_max) / gamma)
    dmax_db = (eb / denom_max) * (1.0 + (b - smooth_max) / gamma)
    # d smooth_min / d a = (fa/denom)·[1 - (a - smooth_min)/γ]
    dmin_da = (fa / denom_min) * (1.0 - (a - smooth_min) / gamma)
    dmin_db = (fb / denom_min) * (1.0 - (b - smooth_min) / gamma)
    return span, dmax_da - dmin_da, dmax_db - dmin_db


def wa_wirelength(
    x: np.ndarray,
    y: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    gamma: float,
) -> float:
    """Weighted WA wirelength (eq. 1) over all 2-pin wires."""
    value, _, _ = wa_wirelength_and_grad(x, y, sources, targets, weights, gamma)
    return value


def wa_wirelength_and_grad(
    x: np.ndarray,
    y: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    gamma: float,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """WA wirelength plus its gradient w.r.t. all cell coordinates.

    Returns ``(value, grad_x, grad_y)`` where the gradients have one entry
    per cell (pin gradients scattered back onto cells).
    """
    # ``not gamma > 0`` also rejects NaN, which a ``gamma <= 0`` test lets through.
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sources = np.asarray(sources, dtype=int)
    targets = np.asarray(targets, dtype=int)
    weights = np.asarray(weights, dtype=float)
    grad_x = np.zeros_like(x)
    grad_y = np.zeros_like(y)
    if sources.size == 0:
        return 0.0, grad_x, grad_y
    span_x, dxa, dxb = _wa_axis(x[sources], x[targets], gamma)
    span_y, dya, dyb = _wa_axis(y[sources], y[targets], gamma)
    value = float(np.sum(weights * (span_x + span_y)))
    np.add.at(grad_x, sources, weights * dxa)
    np.add.at(grad_x, targets, weights * dxb)
    np.add.at(grad_y, sources, weights * dya)
    np.add.at(grad_y, targets, weights * dyb)
    return value, grad_x, grad_y
