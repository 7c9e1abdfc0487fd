"""Cross-cutting hypothesis property tests on system invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import iterative_spectral_clustering
from repro.mapping import autoncs_mapping, fullcro_mapping
from repro.networks import random_sparse_network
from repro.physical.placement.legalize import compact, grid_snap
from repro.physical.placement.wirelength import hpwl, wa_wirelength
from repro.physical.routing.grid import RoutingGrid


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), density=st.floats(0.03, 0.25))
def test_mapping_conservation_end_to_end(seed, density):
    """Crossbar + synapse connections always equal the network exactly."""
    net = random_sparse_network(45, density, rng=seed)
    isc = iterative_spectral_clustering(net, utilization_threshold=0.02,
                                        max_iterations=6, rng=seed)
    mapping = autoncs_mapping(isc)
    mapping.validate()
    baseline = fullcro_mapping(net)
    baseline.validate()
    ours = sum(i.utilized_connections for i in mapping.instances) + mapping.num_synapses
    theirs = sum(i.utilized_connections for i in baseline.instances)
    assert ours == theirs == net.num_connections


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 60))
def test_grid_snap_always_legal(seed, n):
    """Grid snap never leaves overlap regardless of the input chaos."""
    from repro.physical.placement.density import true_overlap

    rng = np.random.default_rng(seed)
    x = rng.normal(0, 5, n)
    y = rng.normal(0, 5, n)
    w = rng.uniform(0.5, 6, n)
    h = rng.uniform(0.5, 6, n)
    nx, ny = grid_snap(x, y, w, h)
    assert true_overlap(nx, ny, w, h) < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 50))
def test_compact_monotone_and_legal(seed, n):
    """Compaction shrinks the bounding box and keeps legality."""
    from repro.physical.placement.density import true_overlap

    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 200, n)
    y = rng.uniform(0, 200, n)
    dims = rng.uniform(1, 5, n)
    lx, ly = grid_snap(x, y, dims, dims)

    def bbox_area(px, py):
        return float(
            ((px + dims / 2).max() - (px - dims / 2).min())
            * ((py + dims / 2).max() - (py - dims / 2).min())
        )

    cx, cy = compact(lx, ly, dims, dims)
    assert true_overlap(cx, cy, dims, dims) < 1e-6
    assert bbox_area(cx, cy) <= bbox_area(lx, ly) + 1e-6


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    gamma=st.floats(0.05, 3.0),
    scale=st.floats(1.5, 100.0),
)
def test_wa_scale_equivariance(seed, gamma, scale):
    """Scaling all coordinates and gamma together scales WA linearly."""
    rng = np.random.default_rng(seed)
    n = 10
    x = rng.random(n) * 50
    y = rng.random(n) * 50
    s = rng.integers(0, n, 6)
    t = (s + 1 + rng.integers(0, n - 1, 6)) % n
    w = rng.random(6) + 0.1
    base = wa_wirelength(x, y, s, t, w, gamma)
    scaled = wa_wirelength(x * scale, y * scale, s, t, w, gamma * scale)
    assert scaled == pytest.approx(base * scale, rel=1e-6, abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_routing_usage_conserved_by_ripup(seed):
    """add_usage followed by negative add_usage restores the grid exactly."""
    rng = np.random.default_rng(seed)
    grid = RoutingGrid((0, 0), 40, 40, 4, capacity=8)
    before_h = grid.horizontal_usage.copy()
    before_v = grid.vertical_usage.copy()
    # random monotone staircase path
    path = [(0, 0)]
    while path[-1] != (9, 9):
        bx, by = path[-1]
        if bx == 9:
            path.append((bx, by + 1))
        elif by == 9 or rng.random() < 0.5:
            path.append((bx + 1, by))
        else:
            path.append((bx, by + 1))
    grid.add_usage(path)
    grid.add_usage(path, amount=-1)
    np.testing.assert_array_equal(grid.horizontal_usage, before_h)
    np.testing.assert_array_equal(grid.vertical_usage, before_v)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hpwl_lower_bounds_routed_length(seed):
    """Routed wirelength can never beat the HPWL lower bound by much.

    (Bin quantization can make a routed path shorter than the exact
    pin-to-pin HPWL by at most one bin per wire.)
    """
    from repro.mapping.netlist import build_netlist
    from repro.hardware.library import CrossbarLibrary
    from repro.physical.layout import Placement
    from repro.physical.routing.router import route

    rng = np.random.default_rng(seed)
    library = CrossbarLibrary()
    synapses = [(i, i + 1) for i in range(5)]
    netlist = build_netlist(6, [], synapses, library)
    placement = Placement(
        x=rng.random(netlist.num_cells) * 60,
        y=rng.random(netlist.num_cells) * 60,
        widths=netlist.widths,
        heights=netlist.heights,
    )
    result = route(netlist, placement)
    sources, targets = netlist.sources, netlist.targets
    bound = hpwl(placement.x, placement.y, sources, targets)
    slack = 2 * result.grid.bin_um * netlist.num_wires
    assert result.total_wirelength_um >= bound - slack
