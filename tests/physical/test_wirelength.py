"""Tests for the WA wirelength model (eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physical.placement.wirelength import hpwl, wa_wirelength, wa_wirelength_and_grad


def _finite_difference(x, y, s, t, w, gamma, h=1e-6):
    grad_x = np.zeros_like(x)
    for i in range(x.shape[0]):
        plus = x.copy(); plus[i] += h
        minus = x.copy(); minus[i] -= h
        vp = wa_wirelength(plus, y, s, t, w, gamma)
        vm = wa_wirelength(minus, y, s, t, w, gamma)
        grad_x[i] = (vp - vm) / (2 * h)
    return grad_x


class TestHpwl:
    def test_two_pin(self):
        x = np.array([0.0, 3.0])
        y = np.array([0.0, 4.0])
        assert hpwl(x, y, np.array([0]), np.array([1])) == pytest.approx(7.0)

    def test_weighted(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 0.0])
        value = hpwl(x, y, np.array([0]), np.array([1]), weights=np.array([2.5]))
        assert value == pytest.approx(2.5)


class TestWaModel:
    def test_approximates_hpwl(self):
        rng = np.random.default_rng(0)
        x = rng.random(10) * 100
        y = rng.random(10) * 100
        s = np.array([0, 2, 4, 6, 8])
        t = np.array([1, 3, 5, 7, 9])
        w = np.ones(5)
        exact = hpwl(x, y, s, t)
        smooth = wa_wirelength(x, y, s, t, w, gamma=0.5)
        assert smooth == pytest.approx(exact, rel=0.05)

    def test_converges_to_hpwl_as_gamma_shrinks(self):
        x = np.array([0.0, 10.0])
        y = np.array([0.0, 0.0])
        s, t, w = np.array([0]), np.array([1]), np.ones(1)
        errors = [
            abs(wa_wirelength(x, y, s, t, w, gamma) - 10.0)
            for gamma in (4.0, 2.0, 1.0, 0.5)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_underestimates_hpwl(self):
        # WA is a lower bound on the true span for 2-pin wires.
        x = np.array([0.0, 7.0])
        y = np.array([2.0, 9.0])
        s, t, w = np.array([0]), np.array([1]), np.ones(1)
        assert wa_wirelength(x, y, s, t, w, 1.0) <= 7.0 + 7.0

    def test_weights_scale_linearly(self):
        x = np.array([0.0, 5.0])
        y = np.array([0.0, 0.0])
        s, t = np.array([0]), np.array([1])
        v1 = wa_wirelength(x, y, s, t, np.array([1.0]), 1.0)
        v3 = wa_wirelength(x, y, s, t, np.array([3.0]), 1.0)
        assert v3 == pytest.approx(3 * v1)

    def test_empty_netlist(self):
        value, gx, gy = wa_wirelength_and_grad(
            np.zeros(3), np.zeros(3), np.array([], dtype=int),
            np.array([], dtype=int), np.array([]), 1.0
        )
        assert value == 0.0
        assert np.all(gx == 0) and np.all(gy == 0)

    def test_rejects_bad_gamma(self):
        for gamma in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                wa_wirelength(np.zeros(2), np.zeros(2), np.array([0]),
                              np.array([1]), np.ones(1), gamma)

    def test_stable_for_large_coordinates(self):
        x = np.array([0.0, 1e6])
        y = np.array([0.0, 0.0])
        value = wa_wirelength(x, y, np.array([0]), np.array([1]), np.ones(1), 0.01)
        assert np.isfinite(value)
        assert value == pytest.approx(1e6, rel=1e-3)


class TestGradient:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.random(8) * 50
        y = rng.random(8) * 50
        s = np.array([0, 1, 2, 3])
        t = np.array([4, 5, 6, 7])
        w = rng.random(4) + 0.5
        _, grad_x, _ = wa_wirelength_and_grad(x, y, s, t, w, gamma=2.0)
        numeric = _finite_difference(x, y, s, t, w, gamma=2.0)
        np.testing.assert_allclose(grad_x, numeric, atol=1e-4)

    def test_gradient_signs(self):
        # Pulling the right pin further right must increase wirelength.
        x = np.array([0.0, 5.0])
        y = np.zeros(2)
        _, gx, _ = wa_wirelength_and_grad(
            x, y, np.array([0]), np.array([1]), np.ones(1), 1.0
        )
        assert gx[1] > 0
        assert gx[0] < 0

    def test_shared_pin_accumulates(self):
        # star: cell 0 wired to cells 1 and 2
        x = np.array([0.0, 10.0, -10.0])
        y = np.zeros(3)
        _, gx, _ = wa_wirelength_and_grad(
            x, y, np.array([0, 0]), np.array([1, 2]), np.ones(2), 1.0
        )
        assert gx[0] == pytest.approx(0.0, abs=1e-6)  # symmetric pulls cancel


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), gamma=st.floats(0.1, 5.0))
def test_property_wa_close_to_hpwl(seed, gamma):
    rng = np.random.default_rng(seed)
    n = 12
    x = rng.random(n) * 200
    y = rng.random(n) * 200
    s = rng.integers(0, n, 8)
    t = (s + 1 + rng.integers(0, n - 1, 8)) % n
    w = np.ones(8)
    exact = hpwl(x, y, s, t)
    smooth = wa_wirelength(x, y, s, t, w, gamma)
    # WA underestimates by at most ~2·gamma per wire per axis
    assert smooth <= exact + 1e-9
    assert smooth >= exact - 8 * 2 * 2 * gamma - 1e-9
