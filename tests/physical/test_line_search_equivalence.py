"""The value-then-gradient line search reproduces the eager one bit for bit.

:func:`conjugate_gradient` asks a :class:`PlacementObjective` for a value
at every trial point and for the gradient only at trials that pass the
Armijo test.  The reference below is the line search and CG it replaced,
which computed a value and a full gradient at every trial point; it is
driven with ``PlacementObjective.value_and_grad``.  Both must evaluate
the same trial points and return the same point, value, iteration count
and convergence flag, and must place the scaled testbench netlists
identically.  ``value_and_grad`` itself must still equal the wirelength
and density terms summed as before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.physical.placement.density as density_module
import repro.physical.placement.placer as placer_module
from repro.core.autoncs import AutoNCS
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.mapping.autoncs_mapping import autoncs_mapping
from repro.observability import recording
from repro.physical.placement.objective import PlacementObjective
from repro.physical.placement.optimizer import CgResult, conjugate_gradient


def _eager_armijo_line_search(
    objective, z, value, grad, direction, initial_step,
    c1=1e-4, shrink=0.5, max_backtracks=30,
):
    """Reference: the line search that took a gradient at every trial."""
    slope = float(grad @ direction)
    if slope >= 0.0:
        return z, value, grad, 0.0
    step = initial_step
    candidate = z + step * direction
    cand_value, cand_grad = objective(candidate)
    if np.isfinite(cand_value) and cand_value <= value + c1 * step * slope:
        best = (candidate, cand_value, cand_grad, step)
        for _ in range(10):
            step *= 2.0
            candidate = z + step * direction
            cand_value, cand_grad = objective(candidate)
            if np.isfinite(cand_value) and cand_value < best[1] + c1 * (
                step - best[3]
            ) * slope:
                best = (candidate, cand_value, cand_grad, step)
            else:
                break
        return best
    for _ in range(max_backtracks):
        step *= shrink
        candidate = z + step * direction
        cand_value, cand_grad = objective(candidate)
        if np.isfinite(cand_value) and cand_value <= value + c1 * step * slope:
            return candidate, cand_value, cand_grad, step
    return z, value, grad, 0.0


def _eager_conjugate_gradient(
    objective, z0, max_iterations=100, gradient_tolerance=1e-6, step_scale=1.0
):
    """Reference: Polak–Ribière+ CG over a ``z -> (value, grad)`` callable."""
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    z = np.asarray(z0, dtype=float).copy()
    value, grad = objective(z)
    direction = -grad
    converged = False
    iteration = 0
    span = float(np.ptp(z)) if z.size else 1.0
    target_move = max(0.02 * span, 1e-3)
    for iteration in range(1, max_iterations + 1):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= gradient_tolerance:
            converged = True
            break
        direction_norm = float(np.max(np.abs(direction)))
        if direction_norm <= 0.0:
            converged = True
            break
        initial_step = step_scale * target_move / direction_norm
        z_new, value_new, grad_new, step = _eager_armijo_line_search(
            objective, z, value, grad, direction, initial_step
        )
        if step == 0.0:
            if np.allclose(direction, -grad):
                converged = True
                break
            direction = -grad
            continue
        y_vec = grad_new - grad
        denom = float(grad @ grad)
        beta = max(0.0, float(grad_new @ y_vec) / denom) if denom > 0 else 0.0
        direction = -grad_new + beta * direction
        z, value, grad = z_new, value_new, grad_new
    return CgResult(z=z, value=value, iterations=iteration, converged=converged)


# Few distinct sizes and coordinates, so identical cells and coincident
# centres come up in most examples.
_SIZES = st.sampled_from([0.5, 2.0, 6.0]) | st.floats(0.1, 8.0)
_COORDS = st.sampled_from([0.0, 1.0, 20.0]) | st.floats(-30.0, 30.0)


@st.composite
def _problems(draw):
    """An objective's inputs, a start point, λ and a CG budget."""
    n = draw(st.integers(2, 60))
    cells = st.integers(0, n - 1)
    wires = draw(
        st.lists(st.tuples(cells, cells).filter(lambda w: w[0] != w[1]),
                 min_size=1, max_size=2 * n)
    )
    weights = draw(st.lists(st.floats(0.1, 4.0), min_size=len(wires), max_size=len(wires)))
    sizes = st.lists(_SIZES, min_size=n, max_size=n).map(np.array)
    inputs = {
        "sources": np.array([w[0] for w in wires]),
        "targets": np.array([w[1] for w in wires]),
        "weights": np.array(weights),
        "virtual_widths": draw(sizes),
        "virtual_heights": draw(sizes),
        "gamma": draw(st.floats(0.1, 5.0)),
        "tau": draw(st.floats(0.1, 5.0)),
    }
    z0 = np.array(draw(st.lists(_COORDS, min_size=2 * n, max_size=2 * n)))
    lam = draw(st.just(0.0) | st.floats(0.01, 50.0))
    iterations = draw(st.integers(1, 12))
    return inputs, z0, lam, iterations


class _Logged(PlacementObjective):
    """Logs every evaluated point and the gradient taken at it."""

    def __init__(self, **inputs):
        super().__init__(**inputs)
        self.points = []
        self.gradients = {}

    def value(self, z):
        self.points.append(z.tobytes())
        return super().value(z)

    def gradient(self):
        grad = super().gradient()
        self.gradients[self.points[-1]] = grad.tobytes()
        return grad


def _run_both(inputs, z0, lam, iterations):
    eager = _Logged(**inputs)
    lazy = _Logged(**inputs)
    eager.lam = lazy.lam = lam
    expected = _eager_conjugate_gradient(eager.value_and_grad, z0, max_iterations=iterations)
    actual = conjugate_gradient(lazy, z0, max_iterations=iterations)
    assert actual.z.tobytes() == expected.z.tobytes()
    assert actual.value == expected.value
    assert actual.iterations == expected.iterations
    assert actual.converged == expected.converged
    # The same trial points; a gradient only where the eager search used
    # one, equal to the one it computed there.
    assert lazy.points == eager.points
    assert lazy.gradients.items() <= eager.gradients.items()
    assert (lazy.wa_evals, lazy.density_evals) == (eager.wa_evals, eager.density_evals)


class TestLineSearchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(problem=_problems(), rebuilt=st.booleans())
    def test_value_then_gradient_matches_summed_terms(self, problem, rebuilt):
        # The objective's value_and_grad as it used to be: the WL and
        # density terms each with its gradient, summed.
        inputs, z, lam, _ = problem
        with pytest.MonkeyPatch.context() as patch:
            if rebuilt:
                patch.setattr(density_module, "SKIN_TAUS", 0.0)
            objective = PlacementObjective(**inputs)
            objective.lam = lam
            wl, wl_grad = objective.wirelength_and_grad(z)
            if lam == 0.0:
                expected = (wl, wl_grad)
            else:
                d, d_grad = objective.density_and_grad(z)
                expected = (wl + lam * d, wl_grad + lam * d_grad)
            value, grad = objective.value_and_grad(z)
        assert value == expected[0]
        assert grad.tobytes() == expected[1].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(problem=_problems())
    def test_all_pairs_density(self, problem):
        _run_both(*problem)

    @settings(max_examples=40, deadline=None)
    @given(problem=_problems())
    def test_rebuilt_density(self, problem):
        # With no skin the candidate list is swept afresh at every trial point.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(density_module, "SKIN_TAUS", 0.0)
            _run_both(*problem)

    def test_wrapped_function_matches(self):
        def quadratic(z):
            diff = z - 3.0
            return float(diff @ diff), 2.0 * diff

        class Quadratic:
            def value(self, z):
                value, self.grad = quadratic(z)
                return value

            def gradient(self):
                return self.grad

        start = np.array([0.0, 1.0, -2.0])
        expected = _eager_conjugate_gradient(quadratic, start, max_iterations=20)
        actual = conjugate_gradient(Quadratic(), start, max_iterations=20)
        assert actual.z.tobytes() == expected.z.tobytes()
        assert (actual.value, actual.iterations, actual.converged) == (
            expected.value, expected.iterations, expected.converged
        )


class TestGradientContract:
    def test_gradient_needs_a_pending_value(self):
        objective = PlacementObjective(
            sources=np.array([0]), targets=np.array([1]), weights=np.ones(1),
            virtual_widths=np.ones(2), virtual_heights=np.ones(2), gamma=1.0, tau=1.0,
        )
        objective.lam = 1.0
        with pytest.raises(RuntimeError):
            objective.gradient()
        z = np.array([0.0, 0.5, 0.0, 0.0])
        objective.value(z)
        objective.gradient()
        with pytest.raises(RuntimeError):  # one gradient per value
            objective.gradient()
        objective.value(z)
        objective.density_and_grad(z)  # overwrites the pending terms
        with pytest.raises(RuntimeError):
            objective.gradient()


# ----------------------------------------------------------------------
# Whole placements of the scaled paper testbenches (golden scale and seeds)
# ----------------------------------------------------------------------
DIMENSION = 120
NETWORK_SEED = 31
FLOW_SEED = 17


@pytest.fixture(scope="module")
def testbench_netlists():
    flow = AutoNCS()
    netlists = {}
    for index in (1, 2, 3):
        tb = build_testbench(scaled_testbench(index, DIMENSION), rng=NETWORK_SEED)
        isc = flow.cluster(tb.network, rng=np.random.default_rng(FLOW_SEED))
        netlists[index] = autoncs_mapping(isc, library=flow.library).netlist
    return netlists


@pytest.mark.parametrize("index", (1, 2, 3))
def test_place_matches_eager_line_search(testbench_netlists, index, monkeypatch):
    netlist = testbench_netlists[index]
    with recording() as lazy_recorder:
        lazy = placer_module.place(netlist, rng=np.random.default_rng(FLOW_SEED))
    monkeypatch.setattr(
        placer_module,
        "conjugate_gradient",
        lambda objective, z0, **kwargs: _eager_conjugate_gradient(
            objective.value_and_grad, z0, **kwargs
        ),
    )
    with recording() as eager_recorder:
        eager = placer_module.place(netlist, rng=np.random.default_rng(FLOW_SEED))
    assert lazy.x.tobytes() == eager.x.tobytes()
    assert lazy.y.tobytes() == eager.y.tobytes()
    assert lazy.metadata["stages"] == eager.metadata["stages"]
    lazy_counts, eager_counts = lazy_recorder.snapshot(), eager_recorder.snapshot()
    for name in ("placement.wa_evals", "placement.density_evals"):
        assert lazy_counts.get(name) == eager_counts.get(name) > 0
    # The eager search takes a gradient at every value evaluation.
    assert eager_counts.get("placement.gradient_evals") == eager_counts.get(
        "placement.wa_evals"
    )
    assert 0 < lazy_counts.get("placement.gradient_evals") < eager_counts.get(
        "placement.gradient_evals"
    )
