"""Tests for the sigmoid density model and spatial pruning."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.physical.placement.density as density_module
from repro.physical.placement.density import (
    density_value,
    density_value_and_grad,
    placement_pairs,
    sigmoid_overlap,
    true_overlap,
)
from repro.physical.placement.spatial import candidate_pairs

#: σ(-8): the most a pair beyond the 8τ cutoff adds to D.
SIGMA_CUTOFF = 1.0 / (1.0 + np.exp(8.0))


class TestSigmoidOverlap:
    def test_overlapping_near_one(self):
        value = sigmoid_overlap(np.array([0.0]), np.array([10.0]), tau=0.5)
        assert value[0] > 0.99

    def test_separated_near_zero(self):
        value = sigmoid_overlap(np.array([100.0]), np.array([10.0]), tau=0.5)
        assert value[0] < 0.01

    def test_half_at_boundary(self):
        value = sigmoid_overlap(np.array([10.0]), np.array([10.0]), tau=1.0)
        assert value[0] == pytest.approx(0.5, abs=0.01)

    def test_rejects_bad_tau(self):
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                sigmoid_overlap(np.array([0.0]), np.array([1.0]), tau=tau)


class TestDensityValue:
    def test_separated_cells_zero(self):
        x = np.array([0.0, 100.0])
        y = np.array([0.0, 100.0])
        dims = np.array([2.0, 2.0])
        value, gx, gy = density_value_and_grad(x, y, dims, dims, tau=0.5)
        assert value < 1e-6

    def test_stacked_cells_high(self):
        x = np.array([0.0, 0.5])
        y = np.array([0.0, 0.5])
        dims = np.array([4.0, 4.0])
        value, _, _ = density_value_and_grad(x, y, dims, dims, tau=0.5)
        assert value > 0.9

    def test_single_cell_zero(self):
        value, _, _ = density_value_and_grad(
            np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([1.0]), 1.0
        )
        assert value == 0.0

    def test_gradient_pushes_apart(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 0.0])
        dims = np.array([4.0, 4.0])
        _, gx, _ = density_value_and_grad(x, y, dims, dims, tau=0.5)
        # descending -grad must separate: cell 0 pushed left, cell 1 right
        assert gx[0] > 0
        assert gx[1] < 0

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_bad_tau(self, n, tau):
        # Rejected at any cell count, also where no pair exists to use τ on.
        cells = np.arange(n, dtype=float)
        with pytest.raises(ValueError):
            density_value_and_grad(cells, cells, np.ones(n), np.ones(n), tau)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        x = rng.random(6) * 10
        y = rng.random(6) * 10
        w = rng.uniform(2, 5, 6)
        h = rng.uniform(2, 5, 6)
        _, gx, _ = density_value_and_grad(x, y, w, h, tau=1.0)
        eps = 1e-6
        for i in range(6):
            plus = x.copy(); plus[i] += eps
            minus = x.copy(); minus[i] -= eps
            vp, _, _ = density_value_and_grad(plus, y, w, h, tau=1.0)
            vm, _, _ = density_value_and_grad(minus, y, w, h, tau=1.0)
            assert gx[i] == pytest.approx((vp - vm) / (2 * eps), abs=1e-4)


class TestTrueOverlap:
    def test_known_overlap(self):
        # two 4x4 cells offset by 2 in x: overlap = 2*4 = 8
        x = np.array([0.0, 2.0])
        y = np.array([0.0, 0.0])
        dims = np.array([4.0, 4.0])
        assert true_overlap(x, y, dims, dims) == pytest.approx(8.0)

    def test_disjoint_zero(self):
        x = np.array([0.0, 10.0])
        y = np.array([0.0, 0.0])
        dims = np.array([4.0, 4.0])
        assert true_overlap(x, y, dims, dims) == 0.0

    def test_identical_cells(self):
        x = np.zeros(2)
        y = np.zeros(2)
        dims = np.array([3.0, 3.0])
        assert true_overlap(x, y, dims, dims) == pytest.approx(9.0)

    @pytest.mark.parametrize("offset", [0.0, 3.0, -5.6])
    def test_cell_spanning_another(self, offset):
        # A 4 µm cell inside a 19.2 µm one along x overlaps it by its own
        # 4 µm wherever it sits inside, not by the 11.6 µm half-width sum.
        x = np.array([0.0, offset])
        y = np.zeros(2)
        widths = np.array([19.2, 4.0])
        heights = np.array([4.0, 4.0])
        assert true_overlap(x, y, widths, heights) == pytest.approx(16.0)
        assert true_overlap(y, x, heights, widths) == pytest.approx(16.0)


class TestSpatialPruning:
    def test_candidate_pairs_superset_of_overlaps(self):
        rng = np.random.default_rng(3)
        n = 100
        x = rng.random(n) * 50
        y = rng.random(n) * 50
        half = rng.uniform(0.5, 3.0, n)
        ii, jj = candidate_pairs(x, y, half)
        found = set(zip(ii.tolist(), jj.tolist()))
        for i in range(n):
            for j in range(i + 1, n):
                interacting = (
                    abs(x[i] - x[j]) <= half[i] + half[j]
                    and abs(y[i] - y[j]) <= half[i] + half[j]
                )
                if interacting:
                    assert (i, j) in found

    def test_binned_matches_full_density(self):
        # Both ways of finding the pairs (the masked all-pairs set and the
        # bins) stay within the bound the cutoff allows of the exact sum
        # over every pair.
        for seed in (4, 9, 21):
            rng = np.random.default_rng(seed)
            n = 150
            x = rng.random(n) * 80
            y = rng.random(n) * 80
            w = rng.uniform(1, 6, n)
            h = rng.uniform(1, 6, n)
            ii, jj = np.triu_indices(n, k=1)
            v_exact, gx_exact, gy_exact = _per_call_density(x, y, w, h, 0.8, ii, jj)
            with pytest.MonkeyPatch.context() as patch:
                for limit in (10**9, 1):
                    patch.setattr(density_module, "PAIRWISE_LIMIT", limit)
                    v_cut, gx_cut, gy_cut = density_value_and_grad(x, y, w, h, tau=0.8)
                    assert v_cut == pytest.approx(v_exact, rel=1e-3, abs=1e-6)
                    np.testing.assert_allclose(gx_cut, gx_exact, atol=1e-3)
                    np.testing.assert_allclose(gy_cut, gy_exact, atol=1e-3)

    def test_binned_overlap_exact(self):
        rng = np.random.default_rng(5)
        n = 120
        x = rng.random(n) * 60
        y = rng.random(n) * 60
        w = rng.uniform(1, 8, n)
        h = rng.uniform(1, 8, n)
        original = density_module.PAIRWISE_LIMIT
        try:
            density_module.PAIRWISE_LIMIT = 10**9
            full = true_overlap(x, y, w, h)
            density_module.PAIRWISE_LIMIT = 1
            binned = true_overlap(x, y, w, h)
        finally:
            density_module.PAIRWISE_LIMIT = original
        assert binned == pytest.approx(full)

    def test_empty_input(self):
        ii, jj = candidate_pairs(np.zeros(0), np.zeros(0), np.zeros(0))
        assert ii.size == 0 and jj.size == 0

    def test_single_cell(self):
        ii, jj = candidate_pairs(np.zeros(1), np.zeros(1), np.ones(1))
        assert ii.size == 0


def _per_call_density(x, y, widths, heights, tau, ii, jj):
    """Reference: the per-call density body, over the given pairs.

    Evaluates ``sigmoid_overlap`` over the pairs and scatters with four
    ``np.add.at`` calls.
    """
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


def _reach(widths, heights, tau):
    """The cutoff reach per cell, ``max(w/2, h/2) + 4τ``."""
    return np.maximum(np.asarray(widths) / 2.0, np.asarray(heights) / 2.0) + 4.0 * tau


def _cutoff_pairs(x, y, widths, heights, tau):
    """Brute force: the pairs ``i < j`` inside the cutoff, in row order."""
    reach = _reach(widths, heights, tau)
    kept = [
        (i, j)
        for i in range(len(x))
        for j in range(i + 1, len(x))
        if abs(x[i] - x[j]) <= reach[i] + reach[j]
        and abs(y[i] - y[j]) <= reach[i] + reach[j]
    ]
    return [i for i, _ in kept], [j for _, j in kept]


def _pair_set(ii, jj):
    pairs = set(zip(np.asarray(ii).tolist(), np.asarray(jj).tolist()))
    assert len(pairs) == len(ii)  # no pair twice
    return pairs


def _assert_identical(actual, expected):
    assert actual[0] == expected[0]
    np.testing.assert_array_equal(actual[1], expected[1])
    np.testing.assert_array_equal(actual[2], expected[2])


# Few distinct sizes and coordinates, so identical cells and coincident
# centres (Δ = 0, where the soft |Δ| matters) come up in most examples.
_SIZES = st.sampled_from([0.5, 2.0, 6.0]) | st.floats(0.1, 8.0)
_COORDS = st.sampled_from([0.0, 1.0, 20.0]) | st.floats(-30.0, 30.0)


@st.composite
def _designs(draw):
    """Cell sizes, τ and three position vectors for one placement."""
    n = draw(st.integers(2, 60))
    vector = st.lists(_COORDS, min_size=n, max_size=n).map(np.array)
    widths = draw(st.lists(_SIZES, min_size=n, max_size=n).map(np.array))
    heights = draw(st.lists(_SIZES, min_size=n, max_size=n).map(np.array))
    tau = draw(st.floats(0.1, 5.0))
    positions = [(draw(vector), draw(vector)) for _ in range(3)]
    return widths, heights, tau, positions


class TestPairSetEquivalence:
    """The kernel reproduces the per-call body over the cutoff pairs bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(design=_designs())
    def test_reused_pair_set_matches_per_call_body(self, design):
        widths, heights, tau, positions = design
        pairs = placement_pairs(widths, heights)
        for x, y in positions:
            ii, jj = _cutoff_pairs(x, y, widths, heights, tau)
            expected = _per_call_density(x, y, widths, heights, tau, ii, jj)
            _assert_identical(
                density_value_and_grad(x, y, widths, heights, tau, pairs), expected
            )
            _assert_identical(density_value_and_grad(x, y, widths, heights, tau), expected)

    @settings(max_examples=60, deadline=None)
    @given(design=_designs())
    def test_binned_path_matches_per_call_body(self, design):
        widths, heights, tau, positions = design
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(density_module, "PAIRWISE_LIMIT", 1)
            assert placement_pairs(widths, heights) is None
            for x, y in positions:
                ii, jj = candidate_pairs(x, y, _reach(widths, heights, tau))
                _assert_identical(
                    density_value_and_grad(x, y, widths, heights, tau),
                    _per_call_density(x, y, widths, heights, tau, ii, jj),
                )


class TestCutoff:
    """Every size evaluates the same 8τ-cutoff sum."""

    @settings(max_examples=80, deadline=None)
    @given(design=_designs())
    def test_masked_selection_matches_candidate_pairs(self, design):
        widths, heights, tau, positions = design
        reused = placement_pairs(widths, heights)
        for x, y in positions:
            expected = _pair_set(*candidate_pairs(x, y, _reach(widths, heights, tau)))
            assert expected == _pair_set(*_cutoff_pairs(x, y, widths, heights, tau))
            _, pairs = density_value(x, y, widths, heights, tau, reused)
            assert _pair_set(pairs.kept_ii, pairs.kept_jj) == expected
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(density_module, "PAIRWISE_LIMIT", 1)
                _, binned = density_value(x, y, widths, heights, tau)
            # The bins found exactly the kept pairs, so the mask drops none.
            assert binned.kept == binned.ii.shape[0]
            assert _pair_set(binned.kept_ii, binned.kept_jj) == expected

    def test_coincident_centres_all_kept(self):
        widths = np.array([1.0, 1.0, 4.0, 1.0])
        heights = np.array([1.0, 2.0, 4.0, 1.0])
        x = np.array([5.0, 5.0, 5.0, 90.0])
        y = np.array([5.0, 5.0, 5.0, 5.0])
        pairs = placement_pairs(widths, heights)
        _, kept = density_value(x, y, widths, heights, 0.5, pairs)
        assert _pair_set(kept.kept_ii, kept.kept_jj) == {(0, 1), (0, 2), (1, 2)}

    @settings(max_examples=60, deadline=None)
    @given(design=_designs())
    def test_dropped_pairs_bound_the_error(self, design):
        # A pair beyond the cutoff has O < σ(-8) on some axis, so it adds
        # less than σ(-8) to D and less than σ(-8)/τ to a gradient entry.
        widths, heights, tau, positions = design
        n = widths.shape[0]
        all_ii, all_jj = np.triu_indices(n, k=1)
        for x, y in positions:
            exact = _per_call_density(x, y, widths, heights, tau, all_ii, all_jj)
            value, grad_x, grad_y = density_value_and_grad(x, y, widths, heights, tau)
            ii, jj = _cutoff_pairs(x, y, widths, heights, tau)
            dropped = np.ones((n, n), dtype=bool)
            dropped[ii, jj] = False
            dropped = np.triu(dropped, k=1)
            slack = 1e-9 * (1.0 + abs(exact[0]))
            assert abs(value - exact[0]) <= dropped.sum() * SIGMA_CUTOFF + slack
            per_cell = (dropped.sum(axis=0) + dropped.sum(axis=1)) * SIGMA_CUTOFF / tau
            assert np.all(np.abs(grad_x - exact[1]) <= per_cell + 1e-9)
            assert np.all(np.abs(grad_y - exact[2]) <= per_cell + 1e-9)


class TestPairSetReuse:
    @pytest.fixture()
    def design(self):
        rng = np.random.default_rng(11)
        n = 40
        widths = rng.uniform(1, 6, n)
        heights = rng.uniform(1, 6, n)
        positions = [(rng.random(n) * 30, rng.random(n) * 30) for _ in range(2)]
        return widths, heights, positions

    def test_results_outlive_the_next_call(self, design):
        # Conjugate gradient holds gradients of several evaluations at once.
        widths, heights, ((x1, y1), (x2, y2)) = design
        pairs = placement_pairs(widths, heights)
        value1, gx1, gy1 = density_value_and_grad(x1, y1, widths, heights, 0.7, pairs)
        first = (value1, gx1.copy(), gy1.copy())
        second = density_value_and_grad(x2, y2, widths, heights, 0.7, pairs)
        _assert_identical((value1, gx1, gy1), first)
        buffers = [a for a in vars(pairs).values() if isinstance(a, np.ndarray)]
        for grad in (gx1, gy1, second[1], second[2]):
            assert not any(np.shares_memory(grad, buffer) for buffer in buffers)

    def test_evaluations_allocate_nothing_pair_sized(self):
        # A temporary the length of the candidate list would be mapped and
        # faulted in afresh on every evaluation; only the kept-pair index
        # and the gradients may be allocated.
        rng = np.random.default_rng(12)
        n = 200
        widths = rng.uniform(1, 6, n)
        heights = rng.uniform(1, 6, n)
        x, y = rng.random(n) * 400, rng.random(n) * 400
        pairs = placement_pairs(widths, heights)
        tracemalloc.start()
        try:
            for _ in range(3):
                density_value_and_grad(x, y, widths, heights, 0.7, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pairs.ii.nbytes // 4

    def test_rejects_pair_set_of_another_size(self, design):
        widths, heights, ((x, y), _) = design
        pairs = placement_pairs(widths[:-1], heights[:-1])
        with pytest.raises(ValueError):
            density_value_and_grad(x, y, widths, heights, 0.7, pairs)
