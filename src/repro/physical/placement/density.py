"""Sigmoid-based cell density / overlap model (paper eq. (2), from [14]).

``D(x, y) = Σ_{i<j} O_x(c_i, c_j) · O_y(c_i, c_j)`` where ``O_x`` is a
sigmoid overlap indicator along x.  With half-extent ``h = (w̃_i + w̃_j)/2``
(``w̃`` the *virtual* width — physical width times the routing-space factor
ω of Sec. 3.5) and center distance ``Δ``::

    O_x = σ((h - |Δ|)/τ) = 1 / (1 + exp((|Δ| - h)/τ))

``O_x ≈ 1`` when the intervals overlap and → 0 when they are separated; τ
controls the transition sharpness.  |Δ| is smoothed as ``sqrt(Δ² + ε)`` so
the gradient is defined at coincident centers.

For small designs every pair is evaluated; beyond
:data:`~repro.physical.placement.spatial.PAIRWISE_LIMIT` cells the pair
set is pruned by spatial binning, which drops a pair only when it is more
than ``8τ`` from touching on some axis.  The pruning is approximate: a
dropped pair has ``O < σ(-8)`` on that axis, so it would have added less
than σ(-8) ≈ 3.4e-4 to ``D`` (and less than σ(-8)/τ to a gradient
component).

The all-pairs set of a placement never changes — cell sizes are fixed and
every pair is kept — so a placement builds it once
(:func:`placement_pairs`) as a :class:`PairSet` that also holds the
evaluation's scratch buffers, and passes it to every evaluation.  The
binned set follows the positions, so each binned evaluation builds a
throwaway one.

An evaluation comes in two halves: :func:`density_value` leaves the
per-pair terms in the set, and :func:`density_grad` finishes the gradient
of that point from them.  A line search that rejects a trial point never
pays for its gradient; :func:`density_value_and_grad` runs both halves.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.special

from repro.physical.placement.spatial import PAIRWISE_LIMIT, candidate_pairs

_EPSILON = 1e-6

#: Sigmoid cutoff margin in units of τ: σ(-8) ≈ 3.4e-4.
_CUTOFF_TAUS = 8.0


def _check_tau(tau: float) -> None:
    # ``not tau > 0`` also rejects NaN, which every ``tau <= 0`` test passes.
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")


def sigmoid_overlap(delta: np.ndarray, half_extent: np.ndarray, tau: float) -> np.ndarray:
    """Smooth overlap indicator ``σ((h - |Δ|)/τ)`` (vectorized)."""
    _check_tau(tau)
    soft_abs = np.sqrt(delta * delta + _EPSILON)
    z = (half_extent - soft_abs) / tau
    return scipy.special.expit(z)  # numerically stable logistic


def _interaction_pairs(
    x: np.ndarray,
    y: np.ndarray,
    half_w: np.ndarray,
    half_h: np.ndarray,
    margin: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs to evaluate: full triangle for small n, binned beyond the limit."""
    n = x.shape[0]
    if n <= PAIRWISE_LIMIT:
        return np.triu_indices(n, k=1)
    reach = np.maximum(half_w, half_h) + margin / 2.0
    return candidate_pairs(x, y, reach)


class PairSet:
    """The cell pairs ``ii < jj`` of a density evaluation, with its scratch space.

    Holds the scatter index ``concat(ii, jj)`` (``ii`` and ``jj`` are views
    of its two halves), the per-pair half-extent sums ``hx``/``hy`` and
    float64 scratch buffers sized exactly to the pair count, so an
    evaluation over the set allocates nothing the length of the pair list.
    Every evaluation overwrites the buffers: a set serves one evaluation at
    a time.
    """

    def __init__(
        self, ii: np.ndarray, jj: np.ndarray, half_w: np.ndarray, half_h: np.ndarray
    ) -> None:
        m = ii.shape[0]
        self.n = half_w.shape[0]
        self.scatter = np.concatenate([ii, jj])
        self.ii = self.scatter[:m]
        self.jj = self.scatter[m:]
        self.hx = half_w[ii] + half_w[jj]
        self.hy = half_h[ii] + half_h[jj]
        self.dx, self.dy, self.soft_abs_x, self.soft_abs_y, self.ox, self.oy = np.empty((6, m))
        #: ``concat(g, -g)`` of one axis: the weights of its scatter.
        self.weights = np.empty(2 * m)


def placement_pairs(widths: np.ndarray, heights: np.ndarray) -> Optional[PairSet]:
    """The reusable all-pairs set of a placement of these cells.

    ``None`` beyond :data:`~repro.physical.placement.spatial.PAIRWISE_LIMIT`
    cells, where the evaluated pairs follow the positions and
    :func:`density_value_and_grad` bins them per call.
    """
    n = len(widths)
    if n > PAIRWISE_LIMIT:
        return None
    ii, jj = np.triu_indices(n, k=1)
    half_w = np.asarray(widths, dtype=float) / 2.0
    half_h = np.asarray(heights, dtype=float) / 2.0
    return PairSet(ii, jj, half_w, half_h)


def _axis_overlap(
    coords: np.ndarray,
    pairs: PairSet,
    half_sum: np.ndarray,
    tau: float,
    delta: np.ndarray,
    soft_abs: np.ndarray,
    overlap: np.ndarray,
) -> None:
    """Fill ``delta`` = Δ, ``soft_abs`` = sqrt(Δ² + ε) and ``overlap`` = O along one axis."""
    # mode="clip" never clips here (the indices are in range); the default
    # "raise" would stage ``out`` through a temporary copy.
    np.take(coords, pairs.ii, out=delta, mode="clip")
    np.take(coords, pairs.jj, out=soft_abs, mode="clip")
    np.subtract(delta, soft_abs, out=delta)
    np.multiply(delta, delta, out=soft_abs)
    np.add(soft_abs, _EPSILON, out=soft_abs)
    np.sqrt(soft_abs, out=soft_abs)
    np.subtract(half_sum, soft_abs, out=overlap)
    np.divide(overlap, tau, out=overlap)
    scipy.special.expit(overlap, out=overlap)


def _axis_grad(
    pairs: PairSet,
    tau: float,
    delta: np.ndarray,
    soft_abs: np.ndarray,
    overlap: np.ndarray,
    other: np.ndarray,
) -> np.ndarray:
    """∂D along one axis, as a fresh length-n array.

    Per pair ``g = -(O(1-O)/τ)·(Δ/sqrt(Δ²+ε))·O_other`` (dσ/dΔ times the
    other axis' overlap), added to cell ``ii`` and subtracted from ``jj``.
    """
    m = delta.shape[0]
    g = pairs.weights[:m]
    np.subtract(1.0, overlap, out=g)
    np.multiply(overlap, g, out=g)
    np.divide(g, tau, out=g)
    np.negative(g, out=g)
    np.divide(delta, soft_abs, out=delta)
    np.multiply(g, delta, out=g)
    np.multiply(g, other, out=g)
    np.negative(g, out=pairs.weights[m:])
    # bincount adds in input order, as add.at(ii, g) then add.at(jj, -g) do,
    # so every cell's sum is bit-identical to the two scatters.
    return np.bincount(pairs.scatter, weights=pairs.weights, minlength=pairs.n)


def density_value(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
    tau: float,
    pairs: Optional[PairSet] = None,
) -> Tuple[float, PairSet]:
    """Pairwise sigmoid density ``D``, keeping its per-pair terms for the gradient.

    Takes the arguments of :func:`density_value_and_grad` and returns
    ``(value, pairs)``: the set this call evaluated over (``pairs``, or the
    throwaway set built when it is ``None``), holding the per-pair terms
    that :func:`density_grad` turns into the gradient at this point.  The
    next evaluation over the same set overwrites them.
    """
    _check_tau(tau)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if pairs is None:
        half_w = np.asarray(widths, dtype=float) / 2.0
        half_h = np.asarray(heights, dtype=float) / 2.0
        ii, jj = _interaction_pairs(x, y, half_w, half_h, margin=_CUTOFF_TAUS * tau)
        pairs = PairSet(ii, jj, half_w, half_h)
    elif pairs.n != x.shape[0]:
        raise ValueError(f"pair set is for {pairs.n} cells, got {x.shape[0]}")

    _axis_overlap(x, pairs, pairs.hx, tau, pairs.dx, pairs.soft_abs_x, pairs.ox)
    _axis_overlap(y, pairs, pairs.hy, tau, pairs.dy, pairs.soft_abs_y, pairs.oy)
    product = pairs.weights[: pairs.ox.shape[0]]  # free until the gradients fill it
    np.multiply(pairs.ox, pairs.oy, out=product)
    return float(np.sum(product)), pairs


def density_grad(pairs: PairSet, tau: float) -> Tuple[np.ndarray, np.ndarray]:
    """The gradient of ``D`` at the point :func:`density_value` last evaluated over ``pairs``.

    Returns ``(grad_x, grad_y)`` as fresh arrays that share no memory with
    ``pairs``.  It uses up the per-pair terms that call left (``dx`` and
    ``dy`` are overwritten), so it runs at most once per
    :func:`density_value`.
    """
    grad_x = _axis_grad(pairs, tau, pairs.dx, pairs.soft_abs_x, pairs.ox, pairs.oy)
    grad_y = _axis_grad(pairs, tau, pairs.dy, pairs.soft_abs_y, pairs.oy, pairs.ox)
    return grad_x, grad_y


def density_value_and_grad(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
    tau: float,
    pairs: Optional[PairSet] = None,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Pairwise sigmoid density ``D`` and its gradient.

    Parameters
    ----------
    widths / heights:
        The *virtual* cell dimensions (ω already applied by the caller).
    tau:
        Sigmoid smoothing length in µm.
    pairs:
        A set from :func:`placement_pairs` for these widths and heights,
        reused across calls; ``None`` builds a throwaway set for this call
        (every pair, or the binned pairs beyond
        :data:`~repro.physical.placement.spatial.PAIRWISE_LIMIT` cells).

    Returns
    -------
    (value, grad_x, grad_y)
        The gradients are fresh arrays that share no memory with ``pairs``.
    """
    value, pairs = density_value(x, y, widths, heights, tau, pairs)
    grad_x, grad_y = density_grad(pairs, tau)
    return value, grad_x, grad_y


def true_overlap(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
) -> float:
    """Exact total pairwise rectangle-overlap area (the loop's stop metric)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if n < 2:
        return 0.0
    half_w = np.asarray(widths, dtype=float) / 2.0
    half_h = np.asarray(heights, dtype=float) / 2.0
    # margin 0: overlapping rectangles always sit within reach of each other.
    ii, jj = _interaction_pairs(x, y, half_w, half_h, margin=0.0)
    if ii.size == 0:
        return 0.0
    ox = np.maximum(0.0, half_w[ii] + half_w[jj] - np.abs(x[ii] - x[jj]))
    oy = np.maximum(0.0, half_h[ii] + half_h[jj] - np.abs(y[ii] - y[jj]))
    return float(np.sum(ox * oy))
