"""Tests for the sigmoid density model and its candidate pairs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.physical.placement.density as density_module
from repro.physical.placement.density import (
    PairSet,
    density_value,
    density_value_and_grad,
    sigmoid_overlap,
    sweep_pairs,
    true_overlap,
)
from tests.physical.density_reference import (
    assert_identical as _assert_identical,
    cutoff_pairs as _cutoff_pairs,
    per_call_density as _per_call_density,
)

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
        ii, jj = sweep_pairs(x, y, half, half)
        found = set(zip(ii.tolist(), jj.tolist()))
        for i in range(n):
            for j in range(i + 1, n):
                interacting = (
                    abs(x[i] - x[j]) <= half[i] + half[j]
                    and abs(y[i] - y[j]) <= half[i] + half[j]
                )
                if interacting:
                    assert (i, j) in found

    @pytest.mark.parametrize("n", [150, 700])
    def test_cutoff_matches_full_density(self, n):
        # The cutoff sum stays within the bound the cutoff allows of the
        # exact sum over every pair, on both sides of the old 600-cell split.
        side = 80.0 * np.sqrt(n / 150)
        for seed in (4, 9, 21):
            rng = np.random.default_rng(seed)
            x = rng.random(n) * side
            y = rng.random(n) * side
            w = rng.uniform(1, 6, n)
            h = rng.uniform(1, 6, n)
            ii, jj = np.triu_indices(n, k=1)
            v_exact, gx_exact, gy_exact = _per_call_density(x, y, w, h, 0.8, ii, jj)
            v_cut, gx_cut, gy_cut = density_value_and_grad(x, y, w, h, tau=0.8)
            assert v_cut == pytest.approx(v_exact, rel=1e-3, abs=1e-6)
            np.testing.assert_allclose(gx_cut, gx_exact, atol=1e-3)
            np.testing.assert_allclose(gy_cut, gy_exact, atol=1e-3)

    @pytest.mark.parametrize("n", [120, 700])
    def test_swept_overlap_exact(self, n):
        # The swept pairs hold every touching pair: the sum over them is
        # the exact all-pairs overlap.
        rng = np.random.default_rng(5)
        side = 60.0 * np.sqrt(n / 120)
        x = rng.random(n) * side
        y = rng.random(n) * side
        w = rng.uniform(1, 8, n)
        h = rng.uniform(1, 8, n)
        ii, jj = np.triu_indices(n, k=1)

        def spans(centres, dims):
            reach = dims[ii] / 2 + dims[jj] / 2 - np.abs(centres[ii] - centres[jj])
            return np.clip(reach, 0, np.minimum(dims[ii], dims[jj]))

        full = float(np.sum(spans(x, w) * spans(y, h)))
        assert full > 0
        assert true_overlap(x, y, w, h) == pytest.approx(full)

    def test_sweep_skips_non_finite_cells(self):
        x = np.array([0.0, 0.5, np.nan, 1.0, np.inf])
        y = np.zeros(5)
        ii, jj = sweep_pairs(x, y, np.ones(5), np.ones(5))
        assert list(zip(ii.tolist(), jj.tolist())) == [(0, 1), (0, 3), (1, 3)]

    def test_empty_input(self):
        ii, jj = sweep_pairs(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        assert ii.size == 0 and jj.size == 0

    def test_single_cell(self):
        ii, jj = sweep_pairs(np.zeros(1), np.zeros(1), np.ones(1), np.ones(1))
        assert ii.size == 0


def _pair_set(ii, jj):
    pairs = set(zip(np.asarray(ii).tolist(), np.asarray(jj).tolist()))
    assert len(pairs) == len(ii)  # no pair twice
    return pairs


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
        pairs = PairSet(widths, heights)
        for x, y in positions:
            ii, jj = _cutoff_pairs(x, y, widths, heights, tau)
            expected = _per_call_density(x, y, widths, heights, tau, ii, jj)
            _assert_identical(
                density_value_and_grad(x, y, widths, heights, tau, pairs), expected
            )
            _assert_identical(density_value_and_grad(x, y, widths, heights, tau), expected)

    @settings(max_examples=60, deadline=None)
    @given(design=_designs())
    def test_rebuilt_list_matches_per_call_body(self, design):
        # With no skin the list is rebuilt at every new position, so each
        # evaluation runs over a freshly swept list.
        widths, heights, tau, positions = design
        pairs = PairSet(widths, heights)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(density_module, "SKIN_TAUS", 0.0)
            for x, y in positions:
                ii, jj = _cutoff_pairs(x, y, widths, heights, tau)
                _assert_identical(
                    density_value_and_grad(x, y, widths, heights, tau, pairs),
                    _per_call_density(x, y, widths, heights, tau, ii, jj),
                )
                assert pairs.kept_ii.tolist() == ii.tolist()
                assert pairs.kept_jj.tolist() == jj.tolist()


class TestCutoff:
    """Every size evaluates the same 8τ-cutoff sum."""

    @settings(max_examples=80, deadline=None)
    @given(design=_designs())
    def test_masked_selection_matches_cutoff_pairs(self, design):
        # The kept pairs are the brute-force cutoff pairs in row-major
        # order, whether the list was swept at this point or earlier.
        widths, heights, tau, positions = design
        reused = PairSet(widths, heights)
        for x, y in positions:
            ii, jj = _cutoff_pairs(x, y, widths, heights, tau)
            for pairs in (reused, None):
                _, kept = density_value(x, y, widths, heights, tau, pairs)
                assert kept.kept_ii.tolist() == ii.tolist()
                assert kept.kept_jj.tolist() == jj.tolist()
                # The list holds each pair once, in row-major order.
                assert np.all(np.diff(kept.ii * len(x) + kept.jj) > 0)

    def test_coincident_centres_all_kept(self):
        widths = np.array([1.0, 1.0, 4.0, 1.0])
        heights = np.array([1.0, 2.0, 4.0, 1.0])
        x = np.array([5.0, 5.0, 5.0, 90.0])
        y = np.array([5.0, 5.0, 5.0, 5.0])
        pairs = PairSet(widths, heights)
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
        pairs = PairSet(widths, heights)
        value1, gx1, gy1 = density_value_and_grad(x1, y1, widths, heights, 0.7, pairs)
        first = (value1, gx1.copy(), gy1.copy())
        second = density_value_and_grad(x2, y2, widths, heights, 0.7, pairs)
        _assert_identical((value1, gx1, gy1), first)
        buffers = [a for a in vars(pairs).values() if isinstance(a, np.ndarray)]
        for grad in (gx1, gy1, second[1], second[2]):
            assert not any(np.shares_memory(grad, buffer) for buffer in buffers)

    def test_evaluations_allocate_nothing_pair_sized(self):
        # A temporary the length of the candidate list would be mapped and
        # faulted in afresh on every evaluation.  Between rebuilds only the
        # kept-pair index and the gradients may be allocated.
        rng = np.random.default_rng(12)
        n = 200
        widths = rng.uniform(1, 6, n)
        heights = rng.uniform(1, 6, n)
        x, y = rng.random(n) * 60, rng.random(n) * 60
        pairs = PairSet(widths, heights)
        density_value_and_grad(x, y, widths, heights, 0.7, pairs)  # builds the list
        # Moves well inside half the skin keep the list.
        moves = [rng.uniform(-1, 1, (2, n)) * 0.1 for _ in range(3)]
        tracemalloc.start()
        try:
            for dx, dy in moves:
                density_value_and_grad(x + dx, y + dy, widths, heights, 0.7, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs.rebuilds == 1
        # The kept index, the shifted inputs and the gradients fit in the
        # allowance; one candidate-length temporary would not.
        allowance = 8 * pairs.kept + 8 * 8 * n + 4096
        assert allowance < 8 * pairs.ii.shape[0]
        assert peak < allowance

    def test_rejects_pair_set_of_another_size(self, design):
        widths, heights, ((x, y), _) = design
        pairs = PairSet(widths[:-1], heights[:-1])
        with pytest.raises(ValueError):
            density_value_and_grad(x, y, widths, heights, 0.7, pairs)
