"""Sigmoid-based cell density / overlap model (paper eq. (2), from [14]).

``D(x, y) = Σ_{i<j} O_x(c_i, c_j) · O_y(c_i, c_j)`` where ``O_x`` is a
sigmoid overlap indicator along x.  With half-extent ``h = (w̃_i + w̃_j)/2``
(``w̃`` the *virtual* width — physical width times the routing-space factor
ω of Sec. 3.5) and center distance ``Δ``::

    O_x = σ((h - |Δ|)/τ) = 1 / (1 + exp((|Δ| - h)/τ))

``O_x ≈ 1`` when the intervals overlap and → 0 when they are separated; τ
controls the transition sharpness.  |Δ| is smoothed as ``sqrt(Δ² + ε)`` so
the gradient is defined at coincident centers.

The sum runs over the pairs inside an ``8τ`` cutoff: a pair is kept when
``|Δx|`` and ``|Δy|`` are both at most ``reach_i + reach_j``, with
``reach = max(w̃/2, h̃/2) + 4τ``.  A dropped pair is more than 8τ from
touching on some axis, so its O there is below σ(-8) ≈ 3.4e-4: it would
have added less than that to ``D`` and less than σ(-8)/τ to a gradient
component.

A placement evaluates over one :class:`PairSet`, a Verlet candidate list:
the pairs within ``reach_i + reach_j`` plus a skin of :data:`SKIN_TAUS` τ
on both axes, found by one sweep (:func:`sweep_pairs`) in row-major
order.  The list is rebuilt only once some cell has moved more than half
the skin on either axis since the last build; until then no pair outside
it can have come inside the cutoff.  Every evaluation keeps the
candidates inside the cutoff at its positions, so at every netlist size
the kept pairs are the cutoff pairs in ``np.triu_indices`` order.

An evaluation comes in two halves: :func:`density_value` leaves the
kept pairs and their terms in the set, and :func:`density_grad` finishes
the gradient of that point from them.  A line search that rejects a
trial point never pays for its gradient; :func:`density_value_and_grad`
runs both halves.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.special

_EPSILON = 1e-6

#: Sigmoid cutoff margin in units of τ: σ(-8) ≈ 3.4e-4.
_CUTOFF_TAUS = 8.0

#: Verlet skin in units of τ.  A wider skin rebuilds the list less often
#: but masks more candidates per evaluation (DESIGN.md gives the measurement).
SKIN_TAUS = 16.0

#: Relative padding of the swept extents: far above the rounding of the
#: sweep's interval ends, so rounding never drops a pair the rebuild rule
#: vouches for.
_ROUNDING_SLACK = 1e-12


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


def _reach(half_w: np.ndarray, half_h: np.ndarray, tau: float) -> np.ndarray:
    """Per-cell cutoff reach ``max(w/2, h/2) + 4τ``."""
    return np.maximum(half_w, half_h) + _CUTOFF_TAUS * tau / 2.0


def sweep_pairs(
    x: np.ndarray, y: np.ndarray, reach_x: np.ndarray, reach_y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair ``ii < jj`` of cells whose boxes ``x ± reach_x``, ``y ± reach_y`` meet.

    Sweep and prune: sorted by ``x - reach_x``, a cell's x-partners are
    the cells after it up to the first whose low end lies past its high
    end (``searchsorted``); those pairs then take the test
    ``|Δy| <= reach_y[ii] + reach_y[jj]``.  Returns the pairs in row-major
    (``np.triu_indices``) order.  A cell with a non-finite coordinate
    meets no other.
    """
    n = x.shape[0]
    cells = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
    low = x[cells] - reach_x[cells]
    order = np.argsort(low, kind="stable")
    cells = cells[order]
    low = low[order]
    end = np.searchsorted(low, x[cells] + reach_x[cells], side="right")
    # Sorted position p pairs with positions p + 1 .. end[p] - 1; the y
    # test reads the sorted arrays, so ``first``'s side is a repeat.
    after = np.arange(1, cells.shape[0] + 1)
    counts = end - after
    first = np.repeat(after - 1, counts)
    second = np.arange(first.shape[0]) + np.repeat(after - (np.cumsum(counts) - counts), counts)
    sorted_y = y[cells]
    sorted_reach = reach_y[cells]
    near = np.abs(np.repeat(sorted_y, counts) - sorted_y[second]) <= (
        np.repeat(sorted_reach, counts) + sorted_reach[second]
    )
    a = cells[first[near]]
    b = cells[second[near]]
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return np.divmod(keys, n)


class PairSet:
    """The Verlet candidate list of one placement's density evaluations, with their scratch space.

    Holds the candidate pairs ``ii < jj`` (row-major) of the cells these
    widths and heights describe.  An evaluation first keeps the
    candidates inside the cutoff at its positions (:meth:`keep`), which
    rebuilds the list first when τ changed or a cell has moved more than
    half the skin since the last build (``rebuilds`` counts the builds).
    Then ``kept`` counts the kept pairs, ``scatter`` is their scatter
    index ``concat(ii, jj)`` (``kept_ii`` and ``kept_jj`` view its two
    halves), ``hx``/``hy`` hold their half-extent sums, and the term
    buffers (``dx`` ... ``oy``, ``weights``) are views of their length.
    Every buffer is allocated with the list, so between rebuilds the only
    array an evaluation allocates is the index of its kept pairs.  Every
    evaluation overwrites the buffers: a set serves one evaluation at a
    time.
    """

    def __init__(self, widths: np.ndarray, heights: np.ndarray) -> None:
        self.half_w = np.asarray(widths, dtype=float) / 2.0
        self.half_h = np.asarray(heights, dtype=float) / 2.0
        self.n = self.half_w.shape[0]
        self.rebuilds = 0
        self._tau: Optional[float] = None  # τ of the list; None before the first build
        self._half_skin = 0.0
        # Positions at the last build, and the per-axis move from them.
        self._anchor = np.empty((2, self.n))
        self._moved = np.empty((2, self.n))

    def _stale(self, x: np.ndarray, y: np.ndarray, tau: float) -> bool:
        """Whether τ changed or some cell moved more than half the skin since the build."""
        if tau != self._tau:
            return True
        moved = self._moved
        np.subtract(x, self._anchor[0], out=moved[0])
        np.subtract(y, self._anchor[1], out=moved[1])
        np.abs(moved, out=moved)
        # ``not <=`` also reads a NaN move (a non-finite point, now or at
        # the build) as stale.
        return not moved.max(initial=0.0) <= self._half_skin

    def _build(self, x: np.ndarray, y: np.ndarray, tau: float) -> None:
        """Sweep the pairs within the cutoff plus the skin at ``(x, y)`` into the list."""
        reach = _reach(self.half_w, self.half_h, tau)
        self._half_skin = SKIN_TAUS * tau / 2.0
        swept = reach + self._half_skin
        self.ii, self.jj = sweep_pairs(
            x,
            y,
            swept + _ROUNDING_SLACK * (np.abs(x) + swept),
            swept + _ROUNDING_SLACK * (np.abs(y) + swept),
        )
        self._anchor[0] = x
        self._anchor[1] = y
        self._tau = tau
        self.rebuilds += 1
        m = self.ii.shape[0]
        self.hx_all = self.half_w[self.ii] + self.half_w[self.jj]
        self.hy_all = self.half_h[self.ii] + self.half_h[self.jj]
        #: ``reach_i + reach_j`` per candidate.
        self.reach_sum = reach[self.ii] + reach[self.jj]
        self.inside, self.inside_y = np.empty((2, m), dtype=bool)
        # Full-length buffers; the kept pairs' own are views of their fronts.
        self._scatter = np.empty(2 * m, dtype=np.intp)
        self._terms = np.empty((8, m))
        self._weights = np.empty(2 * m)

    def _view(self, k: int) -> None:
        """Point the kept-pair names at the first ``k`` entries of the buffers."""
        self.kept = k
        self.scatter = self._scatter[: 2 * k]
        self.kept_ii = self.scatter[:k]
        self.kept_jj = self.scatter[k:]
        #: ``concat(g, -g)`` of one axis: the weights of its scatter.
        self.weights = self._weights[: 2 * k]
        (
            self.hx, self.hy, self.dx, self.dy,
            self.soft_abs_x, self.soft_abs_y, self.ox, self.oy,
        ) = self._terms[:, :k]

    def keep(self, x: np.ndarray, y: np.ndarray, tau: float) -> None:
        """Keep the candidates with ``|Δx|, |Δy| <= reach_i + reach_j`` at ``(x, y)``."""
        if self._stale(x, y, tau):
            self._build(x, y, tau)
        # Two term rows are free until the kept pairs' terms fill them.
        # mode="clip" never clips here (the indices are in range); the
        # default "raise" would stage ``out`` through a temporary copy.
        delta, other = self._terms[:2]
        for coords, inside in ((x, self.inside), (y, self.inside_y)):
            np.take(coords, self.ii, out=delta, mode="clip")
            np.take(coords, self.jj, out=other, mode="clip")
            np.subtract(delta, other, out=delta)
            np.abs(delta, out=delta)
            np.less_equal(delta, self.reach_sum, out=inside)
        np.logical_and(self.inside, self.inside_y, out=self.inside)
        index = np.flatnonzero(self.inside)
        self._view(index.shape[0])
        np.take(self.ii, index, out=self.kept_ii, mode="clip")
        np.take(self.jj, index, out=self.kept_jj, mode="clip")
        np.take(self.hx_all, index, out=self.hx, mode="clip")
        np.take(self.hy_all, index, out=self.hy, mode="clip")


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
    np.take(coords, pairs.kept_ii, out=delta, mode="clip")
    np.take(coords, pairs.kept_jj, out=soft_abs, mode="clip")
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
    ``(value, pairs)``: the set this call evaluated over (``pairs``, or a
    new one for these widths and heights when it is ``None``), holding
    the kept pairs and their terms, which :func:`density_grad` turns into
    the gradient at this point.  The next evaluation over the same set
    overwrites them.
    """
    _check_tau(tau)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if pairs is None:
        pairs = PairSet(widths, heights)
    elif pairs.n != x.shape[0]:
        raise ValueError(f"pair set is for {pairs.n} cells, got {x.shape[0]}")

    pairs.keep(x, y, tau)
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
        A :class:`PairSet` for these widths and heights, reused across
        calls so its candidate list outlives them; ``None`` evaluates over
        a new set.  Either way the sum runs over the pairs inside the
        cutoff.

    Returns
    -------
    (value, grad_x, grad_y)
        The gradients are fresh arrays that share no memory with ``pairs``.
    """
    value, pairs = density_value(x, y, widths, heights, tau, pairs)
    grad_x, grad_y = density_grad(pairs, tau)
    return value, grad_x, grad_y


def _interval_overlap(
    centres: np.ndarray, half: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """Overlap length of the intervals ``centre ± half`` of each pair.

    The half-extent sum less the centre distance, never below zero and
    never above the narrower interval, which it is when one spans the other.
    """
    span = half[ii] + half[jj] - np.abs(centres[ii] - centres[jj])
    return np.clip(span, 0.0, 2.0 * np.minimum(half[ii], half[jj]))


def true_overlap(
    x: np.ndarray,
    y: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
) -> float:
    """Exact total pairwise rectangle-overlap area (the loop's stop metric)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half_w = np.asarray(widths, dtype=float) / 2.0
    half_h = np.asarray(heights, dtype=float) / 2.0
    # No skin: only rectangles that touch can overlap.
    ii, jj = sweep_pairs(x, y, half_w, half_h)
    ox = _interval_overlap(x, half_w, ii, jj)
    oy = _interval_overlap(y, half_h, ii, jj)
    return float(np.sum(ox * oy))
