"""Nonlinear conjugate gradient (paper [15], used by Algorithm 4 line 3).

Polak–Ribière+ directions with automatic restart and a backtracking Armijo
line search.  The placer's objectives are smooth but mildly nonconvex;
PR+ with restarts is the standard choice in analytical placement
(NTUplace3 uses exactly this family).

The line search evaluates only the objective's value at a trial point and
asks for the gradient at a trial only once it passes the Armijo test, so
the gradients of rejected trials are never computed (see
:class:`Objective`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Tuple

import numpy as np

#: CG stops once the gradient's L2 norm falls to this value.
GRADIENT_TOLERANCE = 1e-6


class Objective(Protocol):
    """A function the line search evaluates in two steps.

    ``value(z)`` returns the value at ``z``; ``gradient()`` then returns
    the gradient at that same ``z`` as a fresh array, at most once per
    ``value`` call.
    :class:`~repro.physical.placement.objective.PlacementObjective` is one.
    """

    def value(self, z: np.ndarray) -> float: ...

    def gradient(self) -> np.ndarray: ...


@dataclass
class CgResult:
    """Outcome of a conjugate-gradient run."""

    z: np.ndarray
    value: float
    iterations: int
    converged: bool


def _armijo_line_search(
    objective: Objective,
    z: np.ndarray,
    value: float,
    grad: np.ndarray,
    direction: np.ndarray,
    initial_step: float,
    c1: float = 1e-4,
    shrink: float = 0.5,
    max_backtracks: int = 30,
) -> Tuple[np.ndarray, float, np.ndarray, float]:
    """Backtracking search satisfying the Armijo sufficient-decrease rule.

    Returns ``(z_new, value_new, grad_new, step)``; a zero step means the
    search failed (direction not a descent direction at machine precision).
    The objective's gradient is taken only at trials that pass the test.
    """
    slope = float(grad @ direction)
    if slope >= 0.0:
        return z, value, grad, 0.0
    step = initial_step
    candidate = z + step * direction
    cand_value = objective.value(candidate)
    if np.isfinite(cand_value) and cand_value <= value + c1 * step * slope:
        # The initial step already works — expand while it keeps helping,
        # which makes the search robust to a too-small step scale (e.g. a
        # degenerate all-zeros start gives no coordinate span to infer one).
        best = (candidate, cand_value, objective.gradient(), step)
        for _ in range(10):
            step *= 2.0
            candidate = z + step * direction
            cand_value = objective.value(candidate)
            if np.isfinite(cand_value) and cand_value < best[1] + c1 * (
                step - best[3]
            ) * slope:
                best = (candidate, cand_value, objective.gradient(), step)
            else:
                break
        return best
    for _ in range(max_backtracks):
        step *= shrink
        candidate = z + step * direction
        cand_value = objective.value(candidate)
        if np.isfinite(cand_value) and cand_value <= value + c1 * step * slope:
            return candidate, cand_value, objective.gradient(), step
    return z, value, grad, 0.0


def conjugate_gradient(
    objective: Objective,
    z0: np.ndarray,
    max_iterations: int = 100,
) -> CgResult:
    """Minimize ``objective`` from ``z0`` with Polak–Ribière+ CG.

    Returns
    -------
    CgResult
        Final point, value, iteration count, and a convergence flag
        (gradient norm at most :data:`GRADIENT_TOLERANCE` or line search
        exhausted).
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    z = np.asarray(z0, dtype=float).copy()
    value = objective.value(z)
    grad = objective.gradient()
    direction = -grad
    converged = False
    iteration = 0
    # Trust-region-style step scale: the most-moved cell travels ~2 % of
    # the coordinate span per accepted step.  Normalizing by the infinity
    # norm (not the L2 norm, which grows with the variable count) keeps
    # per-cell moves meaningful for designs of any size.
    span = float(np.ptp(z)) if z.size else 1.0
    target_move = max(0.02 * span, 1e-3)
    for iteration in range(1, max_iterations + 1):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GRADIENT_TOLERANCE:
            converged = True
            break
        direction_norm = float(np.max(np.abs(direction)))
        if direction_norm <= 0.0:
            converged = True
            break
        initial_step = target_move / direction_norm
        z_new, value_new, grad_new, step = _armijo_line_search(
            objective, z, value, grad, direction, initial_step
        )
        if step == 0.0:
            # Restart once on steepest descent before giving up.
            if np.allclose(direction, -grad):
                converged = True
                break
            direction = -grad
            continue
        # Polak–Ribière+ beta with automatic restart (beta clipped at 0).
        y_vec = grad_new - grad
        denom = float(grad @ grad)
        beta = max(0.0, float(grad_new @ y_vec) / denom) if denom > 0 else 0.0
        direction = -grad_new + beta * direction
        z, value, grad = z_new, value_new, grad_new
    return CgResult(z=z, value=value, iterations=iteration, converged=converged)
