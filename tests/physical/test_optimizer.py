"""Tests for the nonlinear conjugate-gradient optimizer."""

import numpy as np
import pytest

from repro.physical.placement.optimizer import conjugate_gradient


class Function:
    """A plain ``z -> (value, gradient)`` function as a CG objective."""

    def __init__(self, function):
        self.function = function
        self.grad = None

    def value(self, z):
        value, self.grad = self.function(z)
        return value

    def gradient(self):
        return self.grad


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def objective(z):
        diff = z - center
        return float(diff @ diff), 2.0 * diff

    return Function(objective)


class TestConjugateGradient:
    def test_solves_quadratic(self):
        result = conjugate_gradient(quadratic([3.0, -2.0]), np.zeros(2),
                                    max_iterations=200)
        np.testing.assert_allclose(result.z, [3.0, -2.0], atol=1e-3)
        assert result.converged

    def test_rosenbrock_descends(self):
        def rosenbrock(z):
            a, b = z
            value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
            grad = np.array([
                -2 * (1 - a) - 400 * a * (b - a * a),
                200 * (b - a * a),
            ])
            return float(value), grad

        start = np.array([-1.0, 1.0])
        start_value, _ = rosenbrock(start)
        result = conjugate_gradient(Function(rosenbrock), start, max_iterations=300)
        assert result.value < start_value / 10

    def test_monotone_decrease(self):
        values = []

        def tracked(z):
            value, grad = quadratic([5.0]).function(z)
            values.append(value)
            return value, grad

        conjugate_gradient(Function(tracked), np.zeros(1), max_iterations=50)
        # line-search evaluations may jitter, but accepted values decrease:
        # final must be far below initial
        assert values[-1] <= values[0]

    def test_already_converged(self):
        result = conjugate_gradient(quadratic([0.0]), np.zeros(1))
        assert result.converged
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_high_dimensional(self):
        rng = np.random.default_rng(0)
        center = rng.random(100)
        result = conjugate_gradient(quadratic(center), np.zeros(100),
                                    max_iterations=300)
        np.testing.assert_allclose(result.z, center, atol=1e-2)

    def test_iteration_budget_respected(self):
        result = conjugate_gradient(quadratic([100.0]), np.zeros(1), max_iterations=3)
        assert result.iterations <= 3

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            conjugate_gradient(quadratic([1.0]), np.zeros(1), max_iterations=0)

    def test_never_increases_value(self):
        def objective(z):
            return float(np.sum(np.cos(z) + 0.01 * z * z)), -np.sin(z) + 0.02 * z

        start = np.full(5, 2.0)
        start_value, _ = objective(start)
        result = conjugate_gradient(Function(objective), start, max_iterations=100)
        assert result.value <= start_value + 1e-12
