"""Tests for the connectivity seed, grid-snap legalizer and compaction."""

import numpy as np
import pytest

import repro.physical.placement.legalize as legalize
from repro.physical.placement.density import true_overlap
from repro.physical.placement.legalize import compact, grid_snap
from repro.physical.placement.seed import connectivity_seed
from repro.physical.placement.wirelength import hpwl


class TestConnectivitySeed:
    def test_neurons_near_their_crossbar(self, small_mapping):
        netlist = small_mapping.netlist
        tech_omega = 1.25
        x, y = connectivity_seed(
            netlist, netlist.widths * tech_omega, netlist.heights * tech_omega, rng=0
        )
        assert x.shape == (netlist.num_cells,)
        # seed wirelength must beat a random placement of the same extent
        sources, targets = netlist.sources, netlist.targets
        seed_wl = hpwl(x, y, sources, targets)
        rng = np.random.default_rng(0)
        rand_wl = hpwl(
            rng.permutation(x), rng.permutation(y), sources, targets
        )
        assert seed_wl < rand_wl

    def test_empty_netlist(self):
        from repro.mapping.netlist import Netlist

        netlist = Netlist(
            kinds=[], widths=[], heights=[], delays_ns=[], sources=[], targets=[], weights=[]
        )
        x, y = connectivity_seed(netlist, np.zeros(0), np.zeros(0), rng=0)
        assert x.size == 0


class TestGridSnap:
    def test_removes_all_overlap(self, rng):
        n = 80
        x = rng.random(n) * 10  # heavily clumped
        y = rng.random(n) * 10
        w = rng.uniform(1, 6, n)
        h = rng.uniform(1, 6, n)
        nx, ny = grid_snap(x, y, w, h)
        assert true_overlap(nx, ny, w, h) < 1e-9

    def test_preserves_relative_structure(self, rng):
        # two groups far apart must stay apart after snapping
        n = 40
        x = np.concatenate([rng.random(20) * 5, 100 + rng.random(20) * 5])
        y = rng.random(n) * 5
        dims = np.full(n, 2.0)
        nx, ny = grid_snap(x, y, dims, dims)
        left = nx[:20].mean()
        right = nx[20:].mean()
        assert right > left

    def test_single_cell(self):
        nx, ny = grid_snap(np.zeros(1), np.zeros(1), np.ones(1), np.ones(1))
        assert nx.shape == (1,)

    def test_grows_map_when_needed(self, rng, monkeypatch):
        # tight fill forces at least one growth iteration but must succeed
        monkeypatch.setattr(legalize, "SNAP_FILL", 0.9)
        n = 30
        x = np.zeros(n)
        y = np.zeros(n)
        dims = rng.uniform(3, 9, n)
        nx, ny = grid_snap(x, y, dims, dims)
        assert true_overlap(nx, ny, dims, dims) < 1e-9

    def test_overfull_fill_still_legalizes(self, monkeypatch):
        # A map sized below the cell area grows until every cell fits.
        monkeypatch.setattr(legalize, "SNAP_FILL", 1.5)
        dims = np.array([1.0, 2.0, 3.0])
        nx, ny = grid_snap(np.zeros(3), np.zeros(3), dims, dims)
        assert true_overlap(nx, ny, dims, dims) == 0.0


class TestCompact:
    def test_preserves_legality(self, rng):
        n = 50
        x = rng.random(n) * 100
        y = rng.random(n) * 100
        dims = rng.uniform(1, 4, n)
        lx, ly = grid_snap(x, y, dims, dims)
        cx, cy = compact(lx, ly, dims, dims)
        assert true_overlap(cx, cy, dims, dims) < 1e-6

    def test_shrinks_bounding_box(self, rng):
        n = 40
        x = rng.random(n) * 300  # very spread
        y = rng.random(n) * 300
        dims = np.full(n, 3.0)
        cx, cy = compact(x, y, dims, dims)
        before = (x.max() - x.min()) * (y.max() - y.min())
        after = (cx.max() - cx.min()) * (cy.max() - cy.min())
        assert after <= before

    def test_empty(self):
        cx, cy = compact(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        assert cx.size == 0

    def test_zero_passes_keep_the_layout(self, monkeypatch):
        monkeypatch.setattr(legalize, "COMPACTION_PASSES", 0)
        x = np.array([0.0, 50.0])
        y = np.array([3.0, 9.0])
        cx, cy = compact(x, y, np.ones(2), np.ones(2))
        np.testing.assert_array_equal(cx, x)
        np.testing.assert_array_equal(cy, y)

    def test_preserves_order(self):
        x = np.array([0.0, 50.0, 100.0])
        y = np.zeros(3)
        dims = np.full(3, 4.0)
        cx, _ = compact(x, y, dims, dims)
        assert cx[0] < cx[1] < cx[2]


class TestAnnealingBaseline:
    def test_produces_legal_placement(self, small_mapping):
        from repro.physical.placement.annealing import AnnealingConfig, anneal_place

        config = AnnealingConfig(moves_per_temperature=60, temperatures=8)
        placement = anneal_place(small_mapping.netlist, config=config, rng=0)
        assert placement.num_cells == small_mapping.netlist.num_cells
        assert placement.overlap_ratio() == 0.0
        assert placement.metadata["method"] == "annealing"

    def test_config_validation(self):
        from repro.physical.placement.annealing import AnnealingConfig

        with pytest.raises(ValueError):
            AnnealingConfig(moves_per_temperature=0)
        with pytest.raises(ValueError):
            AnnealingConfig(temperatures=0)
