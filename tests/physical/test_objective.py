"""Tests for the combined placement objective (WL + λ·D)."""

import numpy as np
import pytest

from repro.physical.placement.objective import PlacementObjective


@pytest.fixture()
def objective():
    return PlacementObjective(
        sources=np.array([0, 1]),
        targets=np.array([1, 2]),
        weights=np.array([1.0, 2.0]),
        virtual_widths=np.array([2.0, 2.0, 2.0]),
        virtual_heights=np.array([2.0, 2.0, 2.0]),
        gamma=1.0,
        tau=0.5,
    )


class TestPackUnpack:
    def test_roundtrip(self, objective):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([3.0, 4.0, 5.0])
        z = objective.pack(x, y)
        rx, ry = objective.unpack(z)
        np.testing.assert_array_equal(rx, x)
        np.testing.assert_array_equal(ry, y)

    def test_unpack_validates_shape(self, objective):
        with pytest.raises(ValueError):
            objective.unpack(np.zeros(5))


class TestValueAndGrad:
    def test_lambda_zero_is_pure_wirelength(self, objective):
        z = objective.pack(np.array([0.0, 5.0, 10.0]), np.zeros(3))
        objective.lam = 0.0
        value, _ = objective.value_and_grad(z)
        wl, _ = objective.wirelength_and_grad(z)
        assert value == pytest.approx(wl)

    def test_lambda_adds_density(self, objective):
        z = objective.pack(np.array([0.0, 0.5, 1.0]), np.zeros(3))
        objective.lam = 3.0
        combined, _ = objective.value_and_grad(z)
        wl, _ = objective.wirelength_and_grad(z)
        density, _ = objective.density_and_grad(z)
        assert combined == pytest.approx(wl + 3.0 * density)

    def test_gradient_consistent_with_value(self, objective):
        rng = np.random.default_rng(0)
        z = rng.random(6) * 10
        objective.lam = 2.0
        _, grad = objective.value_and_grad(z)
        eps = 1e-6
        for i in range(6):
            plus = z.copy(); plus[i] += eps
            minus = z.copy(); minus[i] -= eps
            vp, _ = objective.value_and_grad(plus)
            vm, _ = objective.value_and_grad(minus)
            assert grad[i] == pytest.approx((vp - vm) / (2 * eps), abs=1e-3)

    @pytest.mark.parametrize("far", [1, 600])
    def test_counts_pairs_inside_the_cutoff(self, objective, far):
        # Cells 0 and 1 touch; the ``far`` others lie beyond the 8τ cutoff
        # of every cell, in designs on both sides of 600 cells.
        n = 2 + far
        dims = np.full(n, 2.0)
        objective = PlacementObjective(
            sources=objective.sources, targets=objective.targets,
            weights=objective.weights, virtual_widths=dims,
            virtual_heights=dims, gamma=1.0, tau=0.5,
        )
        x = np.concatenate([[0.0, 1.0], 50.0 * np.arange(1, far + 1)])
        z = objective.pack(x, np.zeros(n))
        objective.lam = 1.0
        objective.value(z)
        objective.density_and_grad(z)
        assert (objective.density_evals, objective.density_pairs) == (2, 2)


class TestInitialLambda:
    def test_paper_formula(self, objective):
        z = objective.pack(np.array([0.0, 0.5, 1.0]), np.zeros(3))
        _, wl_grad = objective.wirelength_and_grad(z)
        _, d_grad = objective.density_and_grad(z)
        expected = np.sum(np.abs(wl_grad)) / np.sum(np.abs(d_grad))
        assert objective.initial_lambda(z) == pytest.approx(expected)

    def test_fallback_when_no_density_gradient(self, objective):
        # far-separated cells: density gradient ~ 0 -> fallback value 1.0
        z = objective.pack(np.array([0.0, 500.0, 1000.0]), np.zeros(3))
        assert objective.initial_lambda(z) == pytest.approx(1.0)

    def test_rejects_bad_smoothing(self):
        nan = float("nan")
        for gamma, tau in ((0.0, 1.0), (1.0, 0.0), (nan, 1.0), (1.0, nan)):
            with pytest.raises(ValueError):
                PlacementObjective(
                    sources=np.array([0]),
                    targets=np.array([1]),
                    weights=np.ones(1),
                    virtual_widths=np.ones(2),
                    virtual_heights=np.ones(2),
                    gamma=gamma,
                    tau=tau,
                )
