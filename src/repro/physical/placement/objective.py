"""The penalty objective ``WL(x, y) + λ·D(x, y)`` of Algorithm 4."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.physical.placement.density import (
    PairSet,
    density_grad,
    density_value,
    density_value_and_grad,
)
from repro.physical.placement.wirelength import wa_wirelength_and_grad


class PlacementObjective:
    """The placement objective: wirelength and density terms together.

    Operates on a packed variable vector ``z = [x; y]`` so generic
    optimizers can consume it.  :meth:`value` evaluates ``WL + λ·D`` at a
    point and :meth:`gradient` then finishes the gradient at that same
    point, so a line search pays for gradients only where it accepts a
    step; :meth:`value_and_grad` does both.

    Parameters
    ----------
    sources, targets, weights:
        2-pin wire endpoint arrays and user wire weights.
    virtual_widths, virtual_heights:
        Cell dimensions with the routing-space factor ω applied.
    gamma:
        WA smoothness (µm).
    tau:
        Density sigmoid smoothing (µm).
    """

    def __init__(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        virtual_widths: np.ndarray,
        virtual_heights: np.ndarray,
        gamma: float,
        tau: float,
    ) -> None:
        # ``not ... > 0`` also rejects NaN, which a ``<= 0`` test lets through.
        if not (gamma > 0 and tau > 0):
            raise ValueError("gamma and tau must be > 0")
        self.sources = np.asarray(sources, dtype=int)
        self.targets = np.asarray(targets, dtype=int)
        self.weights = np.asarray(weights, dtype=float)
        self.virtual_widths = np.asarray(virtual_widths, dtype=float)
        self.virtual_heights = np.asarray(virtual_heights, dtype=float)
        self.gamma = float(gamma)
        self.tau = float(tau)
        self.lam = 0.0
        self.n = self.virtual_widths.shape[0]
        # Cell sizes are fixed, so one candidate list serves the whole
        # placement; it rebuilds itself as the cells move.
        self.pairs = PairSet(self.virtual_widths, self.virtual_heights)
        # What gradient() needs from the last value() call: the WA
        # gradients, the pair set holding the density terms (None when
        # λ was 0) and that λ.
        self._pending: Optional[Tuple[np.ndarray, np.ndarray, Optional[PairSet], float]] = None
        # Evaluation tallies: plain attribute adds in the optimizer's hot
        # loop; the placer reports them to the observability recorder once
        # per place() call.
        self.wa_evals = 0
        self.density_evals = 0
        self.density_pairs = 0  # pairs inside the cutoff, over density_evals
        self.gradient_evals = 0

    # ------------------------------------------------------------------
    def unpack(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split a packed variable vector into (x, y)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * self.n,):
            raise ValueError(f"z must have shape ({2 * self.n},), got {z.shape}")
        return z[: self.n], z[self.n :]

    def pack(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Concatenate (x, y) into the packed variable vector."""
        return np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])

    # ------------------------------------------------------------------
    def wirelength_and_grad(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """WA wirelength term and its packed gradient."""
        self.wa_evals += 1
        x, y = self.unpack(z)
        value, gx, gy = wa_wirelength_and_grad(
            x, y, self.sources, self.targets, self.weights, self.gamma
        )
        return value, np.concatenate([gx, gy])

    def density_and_grad(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """Density term and its packed gradient."""
        self.density_evals += 1
        # This evaluation overwrites the pair set's terms a pending
        # value() left there.
        self._pending = None
        x, y = self.unpack(z)
        value, gx, gy = density_value_and_grad(
            x, y, self.virtual_widths, self.virtual_heights, self.tau, self.pairs
        )
        self.density_pairs += self.pairs.kept
        return value, np.concatenate([gx, gy])

    def value(self, z: np.ndarray) -> float:
        """``WL + λ·D`` at the current λ, keeping what :meth:`gradient` needs."""
        self.wa_evals += 1
        x, y = self.unpack(z)
        wl, wl_gx, wl_gy = wa_wirelength_and_grad(
            x, y, self.sources, self.targets, self.weights, self.gamma
        )
        if self.lam == 0.0:
            self._pending = (wl_gx, wl_gy, None, 0.0)
            return wl
        self.density_evals += 1
        d, pairs = density_value(
            x, y, self.virtual_widths, self.virtual_heights, self.tau, self.pairs
        )
        self.density_pairs += pairs.kept
        self._pending = (wl_gx, wl_gy, pairs, self.lam)
        return wl + self.lam * d

    def gradient(self) -> np.ndarray:
        """The packed gradient at the point of the last :meth:`value` call.

        Each :meth:`value` call allows one gradient; calling this without
        one pending raises ``RuntimeError``.  The result is a fresh array.
        """
        if self._pending is None:
            raise RuntimeError("gradient() needs a value() call before it")
        wl_gx, wl_gy, pairs, lam = self._pending
        self._pending = None
        self.gradient_evals += 1
        wl_grad = np.concatenate([wl_gx, wl_gy])
        if pairs is None:
            return wl_grad
        d_gx, d_gy = density_grad(pairs, self.tau)
        return wl_grad + lam * np.concatenate([d_gx, d_gy])

    def value_and_grad(self, z: np.ndarray) -> Tuple[float, np.ndarray]:
        """``WL + λ·D`` with gradient, at the current λ."""
        value = self.value(z)
        return value, self.gradient()

    # ------------------------------------------------------------------
    def initial_lambda(self, z: np.ndarray) -> float:
        """Algorithm 4 line 1: ``λ0 = Σ|∂WL| / Σ|∂D|``."""
        self.gradient_evals += 1
        _, wl_grad = self.wirelength_and_grad(z)
        _, d_grad = self.density_and_grad(z)
        denominator = float(np.sum(np.abs(d_grad)))
        numerator = float(np.sum(np.abs(wl_grad)))
        if denominator <= 1e-12:
            return 1.0
        return numerator / denominator
