"""One Verlet candidate list keeps exactly the brute-force cutoff pairs through any moves.

A :class:`PairSet` serves a whole placement: it sweeps its candidate
list once and rebuilds it only when τ changes or a cell has moved more
than half the skin on either axis since the last build.  The suite
drives one set through a sequence of moves, at cell counts on both sides
of 600 (where the density used to switch from an all-pairs set to
per-evaluation bins), and after every move asserts that

* the list was rebuilt exactly when that rule says (a non-finite
  coordinate, now or at the last build, counts as a move past the skin),
* the kept pairs are the brute-force cutoff pairs in row-major order, and
* value and gradients equal the per-call body over those pairs bit for bit.

The moves include steps just under and just over half the skin,
coincident centres, τ changes, and non-finite trial points followed by
finite ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physical.placement.density import SKIN_TAUS, PairSet, density_value_and_grad
from tests.physical.density_reference import assert_identical, cutoff_pairs, per_call_density

#: Step lengths in units of half the skin: just under and just over it,
#: exactly it, and well inside and beyond it.
_STEPS = st.sampled_from(
    [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 - 1e-9, 1.0 + 1e-9, 0.3, 2.5]
)

_MOVES = st.one_of(
    st.tuples(st.just("step"), _STEPS, st.sampled_from(["x", "y", "xy"]), st.floats(0.0, 1.0)),
    st.tuples(st.just("coincide"), st.integers(1, 6)),
    st.tuples(st.just("non-finite"), st.sampled_from([np.inf, -np.inf, np.nan])),
    st.tuples(st.just("tau"), st.sampled_from([0.5, 2.0])),
)


@st.composite
def _runs(draw):
    """A design (cell count, seed, τ) and the moves to drive its pair set through."""
    n = draw(st.integers(2, 80) | st.integers(601, 640))
    seed = draw(st.integers(0, 2**32 - 1))
    tau = draw(st.sampled_from([0.25, 1.0]) | st.floats(0.1, 5.0))
    moves = draw(st.lists(_MOVES, min_size=1, max_size=8))
    return n, seed, tau, moves


def _design(n, rng):
    """Mixed cell sizes (a few crossbar-sized), packed to overlap moderately,
    with a share of the centres on a coarse grid so that ties come up."""
    widths = rng.choice([0.5, 2.0, 4.8, 19.2], size=n, p=[0.2, 0.5, 0.2, 0.1])
    heights = np.where(rng.random(n) < 0.5, widths, rng.choice([2.0, 4.8], size=n))
    side = np.sqrt(np.sum(widths * heights) * 1.5)
    x, y = rng.random((2, n)) * side
    snapped = rng.random(n) < 0.3
    x[snapped] = np.round(x[snapped])
    y[snapped] = np.round(y[snapped])
    return widths, heights, x, y


def _stale(x, y, anchor, half_skin):
    """The rebuild rule, as stated: some cell moved more than half the skin."""
    for coords, built in zip((x, y), anchor):
        with np.errstate(invalid="ignore"):
            moved = np.abs(coords - built)
        if not np.max(moved, initial=0.0) <= half_skin:
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(run=_runs())
def test_moves_keep_the_cutoff_pairs(run):
    n, seed, tau, moves = run
    rng = np.random.default_rng(seed)
    widths, heights, x, y = _design(n, rng)
    pairs = PairSet(widths, heights)
    anchor, built_tau, rebuilds = None, None, 0

    def evaluate(px, py, tau):
        nonlocal anchor, built_tau, rebuilds
        if tau != built_tau or _stale(px, py, anchor, SKIN_TAUS * tau / 2.0):
            anchor, built_tau, rebuilds = (px.copy(), py.copy()), tau, rebuilds + 1
        actual = density_value_and_grad(px, py, widths, heights, tau, pairs)
        assert pairs.rebuilds == rebuilds
        ii, jj = cutoff_pairs(px, py, widths, heights, tau)
        assert np.array_equal(pairs.kept_ii, ii)
        assert np.array_equal(pairs.kept_jj, jj)
        assert_identical(actual, per_call_density(px, py, widths, heights, tau, ii, jj))

    evaluate(x, y, tau)
    for move in moves:
        kind = move[0]
        if kind == "step":
            _, step, axes, share = move
            movers = rng.random(n) < share
            signs = rng.choice([-1.0, 1.0], size=(2, n))
            length = step * (SKIN_TAUS * tau / 2.0)
            x, y = x.copy(), y.copy()
            if "x" in axes:
                x[movers] += signs[0, movers] * length
            if "y" in axes:
                y[movers] += signs[1, movers] * length
        elif kind == "coincide":
            cells = rng.choice(n, size=min(move[1], n), replace=False)
            x, y = x.copy(), y.copy()
            x[cells], y[cells] = x[cells[0]], y[cells[0]]
        elif kind == "non-finite":
            # One trial point with a non-finite cell, then back to a finite one.
            bad_x, bad_y = x.copy(), y.copy()
            cells = rng.choice(n, size=max(1, n // 10), replace=False)
            (bad_x if rng.random() < 0.5 else bad_y)[cells] = move[1]
            evaluate(bad_x, bad_y, tau)
        else:
            tau *= move[1]
        evaluate(x, y, tau)


def test_just_under_half_the_skin_keeps_the_list():
    # Two cells drift apart by just under half the skin each, then just over.
    widths = heights = np.full(2, 2.0)
    tau = 1.0
    half_skin = SKIN_TAUS * tau / 2.0
    pairs = PairSet(widths, heights)
    x = np.array([0.0, 0.0])
    y = np.zeros(2)
    density_value_and_grad(x, y, widths, heights, tau, pairs)
    under = np.nextafter(half_skin, 0.0)
    density_value_and_grad(x + [-under, under], y, widths, heights, tau, pairs)
    assert pairs.rebuilds == 1
    over = np.nextafter(half_skin, np.inf)
    density_value_and_grad(x + [-over, over], y, widths, heights, tau, pairs)
    assert pairs.rebuilds == 2
