"""Negotiated-congestion router tests: shared invariants, QoR, mutations.

Three layers:

* **Invariants** every routing result must satisfy regardless of the
  algorithm (contiguous on-grid paths, pin bins respected, recorded
  lengths consistent, usage counters equal to an independent replay of
  the committed paths) — parametrized over ``ordered`` and
  ``negotiated`` so both stay honest.
* **QoR comparison** on the three scaled paper testbenches at the golden
  dimension/seeds: negotiated wirelength and overflow must never be
  worse than ordered.
* **Mutation tests** proving the independent verifier actually catches
  the failure modes a broken negotiation would produce (stale usage
  bookkeeping after a rip-up without reroute, tampered paths, hidden
  overflow).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.autoncs import AutoNCS
from repro.core.config import fast_config
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.hardware.library import CrossbarLibrary
from repro.hardware.technology import Technology
from repro.mapping.autoncs_mapping import autoncs_mapping
from repro.mapping.netlist import build_netlist
from repro.physical.layout import Placement
from repro.physical.placement.placer import place
from repro.physical.routing import negotiated
from repro.physical.routing.maze import maze_route
from repro.physical.routing.router import (
    ROUTING_ALGORITHMS,
    RoutingConfig,
    RoutingResult,
    route,
)
from repro.verify.checks import check_physical

# Golden-fixture scale and seeds (tests/golden/test_golden.py) — the QoR
# comparison below is pinned to the same deterministic designs.
DIMENSION = 120
NETWORK_SEED = 31
FLOW_SEED = 17


# ----------------------------------------------------------------------
# Shared invariants
# ----------------------------------------------------------------------
def assert_routing_invariants(netlist, placement, result: RoutingResult) -> None:
    """Every property a sound routing result must have, any algorithm."""
    grid = result.grid
    # Exactly one route per wire.
    assert len(result.paths) == len(result.lengths) == netlist.num_wires
    assert result.overflowed.shape == (netlist.num_wires,)
    replay_h = np.zeros_like(grid.horizontal_usage)
    replay_v = np.zeros_like(grid.vertical_usage)
    for index, (path, length) in enumerate(zip(result.paths, result.lengths)):
        source, target = netlist.sources[index], netlist.targets[index]
        sx, sy = placement.x[source], placement.y[source]
        tx, ty = placement.x[target], placement.y[target]
        start = grid.bin_of(float(sx), float(sy))
        goal = grid.bin_of(float(tx), float(ty))
        assert path, "empty path"
        if len(path) == 1:
            assert path[0] == start == goal
            expected = abs(sx - tx) + abs(sy - ty)
        else:
            assert path[0] == start and path[-1] == goal
            for a, b in zip(path, path[1:]):
                # Contiguous, axis-aligned, on-grid steps.
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                assert 0 <= b[0] < grid.nx and 0 <= b[1] < grid.ny
                if a[1] == b[1]:
                    replay_h[min(a[0], b[0]), a[1]] += 1
                else:
                    replay_v[a[0], min(a[1], b[1])] += 1
            expected = grid.path_length_um(path)
            # Wirelength lower bound: Manhattan distance between pin bins.
            manhattan = (abs(start[0] - goal[0]) + abs(start[1] - goal[1])) * grid.bin_um
            assert length >= manhattan - 1e-9
        assert length == pytest.approx(expected)
    # The grid's usage counters must equal the independent replay — any
    # rip-up that forgot to reroute (or vice versa) breaks this.
    np.testing.assert_array_equal(replay_h, grid.horizontal_usage)
    np.testing.assert_array_equal(replay_v, grid.vertical_usage)


def _chain_design(n_cells=8, span=70.0, seed=0):
    library = CrossbarLibrary()
    pairs = [(i, i + 1) for i in range(n_cells - 1)]
    netlist = build_netlist(n_cells, [], pairs, library)
    rng = np.random.default_rng(seed)
    placement = Placement(
        x=rng.random(netlist.num_cells) * span,
        y=rng.random(netlist.num_cells) * span,
        widths=netlist.widths,
        heights=netlist.heights,
    )
    return netlist, placement


@pytest.mark.parametrize("algorithm", ROUTING_ALGORITHMS)
class TestSharedInvariants:
    def test_random_chain(self, algorithm):
        netlist, placement = _chain_design()
        result = route(netlist, placement, config=RoutingConfig(algorithm=algorithm))
        assert result.algorithm == algorithm
        assert_routing_invariants(netlist, placement, result)

    def test_tight_capacity(self, algorithm):
        netlist, placement = _chain_design(n_cells=10, span=50.0, seed=3)
        technology = Technology(routing_bin_um=20.0, routing_capacity_per_bin=1)
        config = RoutingConfig(algorithm=algorithm)
        result = route(netlist, placement, technology=technology, config=config)
        assert_routing_invariants(netlist, placement, result)

    def test_result_reports_algorithm_counters(self, algorithm):
        netlist, placement = _chain_design(seed=5)
        result = route(netlist, placement, config=RoutingConfig(algorithm=algorithm))
        if algorithm == "negotiated":
            assert result.relax_rounds == 0
            assert result.ripup_iterations >= 0
        else:
            assert result.ripup_iterations == 0


class TestNegotiatedSpecifics:
    def test_converges_without_congestion(self):
        netlist, placement = _chain_design(seed=1)
        result = route(
            netlist, placement, config=RoutingConfig(algorithm="negotiated")
        )
        assert result.overflow_wires == 0
        assert result.ripups == 0 and result.ripup_iterations == 0

    def test_ripups_fire_under_contention(self):
        # Funnel every wire through one flat corridor: unit capacity with
        # ten parallel left-to-right connections forces negotiation.
        library = CrossbarLibrary()
        pairs = [(i, i + 10) for i in range(10)]
        netlist = build_netlist(20, [], pairs, library)
        # Cells: 20 neurons then one synapse cell per pair, all on one row.
        x = np.concatenate([np.full(10, 5.0), np.full(10, 95.0), np.full(10, 50.0)])
        y = np.full(netlist.num_cells, 5.0)
        placement = Placement(
            x=x, y=y, widths=netlist.widths, heights=netlist.heights
        )
        technology = Technology(routing_bin_um=10.0, routing_capacity_per_bin=1)
        config = RoutingConfig(algorithm="negotiated")
        result = route(netlist, placement, technology=technology, config=config)
        assert_routing_invariants(netlist, placement, result)
        assert result.ripup_iterations > 0

    def test_zero_iterations_is_first_pass_only(self, monkeypatch):
        monkeypatch.setattr(negotiated, "MAX_RIPUP_ITERATIONS", 0)
        netlist, placement = _chain_design(seed=2)
        config = RoutingConfig(algorithm="negotiated")
        result = route(netlist, placement, config=config)
        assert result.ripup_iterations == 0
        assert_routing_invariants(netlist, placement, result)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="algorithm"):
            RoutingConfig(algorithm="steiner")


# ----------------------------------------------------------------------
# QoR on the scaled paper testbenches (golden scale and seeds)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def placed_testbenches():
    """tb1–tb3 clustered, mapped and placed once at the golden scale.

    The flow's own seeding (``AutoNCS.run`` with the golden flow seed)
    is reproduced stage by stage so these are exactly the golden designs.
    """
    designs = {}
    flow = AutoNCS()
    for index in (1, 2, 3):
        tb = build_testbench(scaled_testbench(index, DIMENSION), rng=NETWORK_SEED)
        isc = flow.cluster(tb.network, rng=np.random.default_rng(FLOW_SEED))
        mapping = autoncs_mapping(isc, library=flow.library)
        placement = place(
            mapping.netlist,
            technology=flow.config.technology,
            rng=np.random.default_rng(FLOW_SEED),
        )
        designs[index] = (mapping.netlist, placement, flow.config.technology)
    return designs


@pytest.mark.parametrize("index", (1, 2, 3))
def test_negotiated_never_worse_than_ordered(placed_testbenches, index):
    netlist, placement, technology = placed_testbenches[index]
    results = {
        algorithm: route(
            netlist,
            placement,
            technology=technology,
            config=RoutingConfig(algorithm=algorithm),
        )
        for algorithm in ROUTING_ALGORITHMS
    }
    for result in results.values():
        assert_routing_invariants(netlist, placement, result)
    negotiated, ordered = results["negotiated"], results["ordered"]
    assert negotiated.overflow_wires <= ordered.overflow_wires
    assert negotiated.total_wirelength_um <= ordered.total_wirelength_um + 1e-6


@pytest.mark.parametrize("index", (1, 2, 3))
def test_negotiated_leaves_no_detour_it_could_shorten(placed_testbenches, index):
    # Ripping up any routed wire, no path over edges below base capacity is
    # shorter than the one the negotiated router kept.
    netlist, placement, technology = placed_testbenches[index]
    result = route(
        netlist, placement, technology=technology, config=RoutingConfig(algorithm="negotiated")
    )
    grid = result.grid
    for path in result.paths:
        if len(path) < 2:
            continue
        grid.add_usage(path, amount=-1)
        shorter = maze_route(grid, path[0], path[-1], congestion_weight=0.0)
        grid.add_usage(path)
        assert shorter is None or len(shorter) >= len(path)


# ----------------------------------------------------------------------
# Property tests: random placements, both algorithms
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_cells=st.integers(min_value=2, max_value=12),
    algorithm=st.sampled_from(ROUTING_ALGORITHMS),
)
def test_invariants_hold_for_random_placements(seed, n_cells, algorithm):
    library = CrossbarLibrary()
    rng = np.random.default_rng(seed)
    pairs = [
        (int(a), int(b))
        for a, b in rng.integers(0, n_cells, size=(n_cells, 2))
        if a != b
    ]
    netlist = build_netlist(n_cells, [], pairs, library)
    placement = Placement(
        x=rng.random(netlist.num_cells) * 80,
        y=rng.random(netlist.num_cells) * 80,
        widths=netlist.widths,
        heights=netlist.heights,
    )
    result = route(netlist, placement, config=RoutingConfig(algorithm=algorithm))
    assert_routing_invariants(netlist, placement, result)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_both_algorithms_agree_on_uncongested_wirelength(seed):
    # With capacity to spare, both algorithms find shortest paths — total
    # wirelength must agree exactly (paths may differ, lengths cannot).
    netlist, placement = _chain_design(n_cells=6, seed=seed)
    technology = Technology(routing_capacity_per_bin=64)
    lengths = {
        algorithm: route(
            netlist,
            placement,
            technology=technology,
            config=RoutingConfig(algorithm=algorithm),
        ).total_wirelength_um
        for algorithm in ROUTING_ALGORITHMS
    }
    assert lengths["negotiated"] == pytest.approx(lengths["ordered"])


# ----------------------------------------------------------------------
# Mutation tests: a broken negotiation must not pass the verifier
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def negotiated_design():
    """A small end-to-end negotiated design the verifier accepts."""
    tb = build_testbench(scaled_testbench(1, 40), rng=NETWORK_SEED)
    config = fast_config()
    config.routing = RoutingConfig(algorithm="negotiated")
    result = AutoNCS(config).run(tb.network, rng=FLOW_SEED)
    return result.design


def _multi_bin_wire(routing):
    return next(index for index, path in enumerate(routing.paths) if len(path) > 1)


def test_untampered_design_passes(negotiated_design):
    design = negotiated_design
    report = check_physical(design.mapping, design.placement, design.routing)
    assert report.passed, report.violations


def test_ripup_without_reroute_is_detected(negotiated_design):
    # A rip-up that forgets to reroute leaves the grid counters stale
    # relative to the committed paths — the replay check must fire.
    design = negotiated_design
    routing = design.routing
    victim = routing.paths[_multi_bin_wire(routing)]
    routing.grid.add_usage(victim, amount=-1)
    try:
        report = check_physical(design.mapping, design.placement, routing)
        assert not report.passed
        assert any("usage counters" in v.message for v in report.violations)
    finally:
        routing.grid.add_usage(victim)


def test_tampered_path_is_detected(negotiated_design):
    design = negotiated_design
    routing = design.routing
    victim = _multi_bin_wire(routing)
    original = routing.paths[victim]
    routing.paths[victim] = [original[0], original[-1]] if len(original) > 2 else [
        original[0],
        (original[0][0] + 2, original[0][1]),
    ]
    try:
        report = check_physical(design.mapping, design.placement, routing)
        assert not report.passed
    finally:
        routing.paths[victim] = original


def test_hidden_overflow_is_detected(monkeypatch):
    # Force real overflow, then pretend there was none: the verifier must
    # flag over-capacity edges paired with overflow_wires == 0.
    monkeypatch.setattr(negotiated, "MAX_RIPUP_ITERATIONS", 2)
    netlist, placement = _chain_design(n_cells=10, span=50.0, seed=3)
    technology = Technology(routing_bin_um=25.0, routing_capacity_per_bin=1)
    config = RoutingConfig(algorithm="negotiated")
    result = route(netlist, placement, technology=technology, config=config)
    over = int(
        np.count_nonzero(result.grid.horizontal_usage > result.grid.horizontal_capacity)
        + np.count_nonzero(result.grid.vertical_usage > result.grid.vertical_capacity)
    )
    if over == 0:
        pytest.skip("design did not overflow — nothing to hide")
    assert result.overflow_wires > 0
    result.overflowed[:] = False
    # check_physical needs a mapping; reuse the raw check via a stand-in.
    from repro.verify.checks import _check_routing

    class _Mapping:
        pass

    mapping = _Mapping()
    mapping.netlist = netlist
    violations = []
    _check_routing(mapping, placement, result, violations)
    assert any("overflow" in v.message for v in violations)
