"""Tests for the hardened AutoNCS pipeline: StageError, fallbacks, diagnostics."""

import numpy as np
import pytest

import repro.core.autoncs as autoncs_module
from repro.core import AutoNCS, StageError
from repro.core.config import fast_config
from repro.networks import ConnectionMatrix, random_sparse_network
from repro.physical.placement.placer import place as real_place
from repro.physical.routing.router import route as real_route
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def network():
    return random_sparse_network(60, density=0.08, rng=2)


@pytest.fixture()
def flow():
    return AutoNCS(fast_config())


class TestStageError:
    def test_carries_stage_and_partial(self):
        err = StageError("mapping", "boom", partial={"isc": "partial-result"})
        assert err.stage == "mapping"
        assert err.partial == {"isc": "partial-result"}
        assert "AutoNCS stage 'mapping' failed: boom" in str(err)

    def test_partial_defaults_empty(self):
        assert StageError("cost", "x").partial == {}


class TestEmptyNetworkFailsFast:
    def test_run_names_the_stage(self, flow):
        empty = ConnectionMatrix.from_dense(np.zeros((20, 20)), name="hollow")
        with pytest.raises(ValueError, match="stage 'isc'.*'hollow'.*empty"):
            flow.run(empty, rng=0)

    def test_cluster_names_the_stage(self, flow):
        empty = ConnectionMatrix.from_dense(np.zeros((10, 10)))
        with pytest.raises(ValueError, match="stage 'isc'"):
            flow.cluster(empty, rng=0)

    def test_wrong_type_is_a_type_error(self, flow):
        with pytest.raises(TypeError, match="ConnectionMatrix"):
            flow.run(np.zeros((10, 10)), rng=0)


class TestDiagnostics:
    def test_stage_timings_recorded(self, flow, network):
        result = flow.run(network, rng=3)
        seconds = result.metadata["stage_seconds"]
        assert {"isc", "mapping", "placement", "routing", "cost"} <= set(seconds)
        assert all(value >= 0.0 for value in seconds.values())

    def test_healthy_run_has_no_fallbacks(self, flow, network):
        result = flow.run(network, rng=3)
        assert result.metadata["fallbacks"] == []

    def test_design_carries_the_same_diagnostics(self, flow, network):
        result = flow.run(network, rng=3)
        assert result.design.metadata["diagnostics"] is result.metadata


class TestPlacementFallback:
    def test_divergent_placer_falls_back_to_annealing(self, flow, network, monkeypatch):
        # Acceptance criterion: a pathological analytical placement (all-NaN
        # coordinates) must not kill the flow — the annealing fallback runs
        # and the event is recorded in the result metadata.
        def nan_place(netlist, **kwargs):
            placement = real_place(netlist, **kwargs)
            placement.x[:] = np.nan
            return placement

        monkeypatch.setattr(autoncs_module, "place", nan_place)
        result = flow.run(network, rng=3)
        assert np.all(np.isfinite(result.design.placement.x))
        fallbacks = result.metadata["fallbacks"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["stage"] == "placement"
        assert fallbacks[0]["action"] == "annealing_placer"
        assert "non-finite" in fallbacks[0]["reason"]
        assert "placement_fallback" in result.metadata["stage_seconds"]

    def test_raising_placer_falls_back_too(self, flow, network, monkeypatch):
        def broken_place(netlist, **kwargs):
            raise RuntimeError("synthetic divergence")

        monkeypatch.setattr(autoncs_module, "place", broken_place)
        result = flow.run(network, rng=3)
        fallbacks = result.metadata["fallbacks"]
        assert fallbacks[0]["stage"] == "placement"
        assert "synthetic divergence" in fallbacks[0]["reason"]


class TestRoutingRetry:
    def test_first_failure_retries_with_relaxed_capacity(self, flow, network, monkeypatch):
        calls = {"n": 0}

        def flaky_route(netlist, placement, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic congestion blow-up")
            return real_route(netlist, placement, **kwargs)

        monkeypatch.setattr(autoncs_module, "route", flaky_route)
        result = flow.run(network, rng=3)
        assert calls["n"] == 2
        fallbacks = result.metadata["fallbacks"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["stage"] == "routing"
        assert fallbacks[0]["action"] == "relaxed_capacity_retry"
        assert "routing_retry" in result.metadata["stage_seconds"]

    def test_persistent_failure_raises_stage_error(self, flow, network, monkeypatch):
        def dead_route(netlist, placement, **kwargs):
            raise RuntimeError("unroutable")

        monkeypatch.setattr(autoncs_module, "route", dead_route)
        with pytest.raises(StageError) as excinfo:
            flow.run(network, rng=3)
        assert excinfo.value.stage == "routing"
        assert "mapping" in excinfo.value.partial


class TestCompareRngDecoupling:
    def test_baseline_reproducible_in_isolation(self, flow, network):
        # compare() spawns one child generator per flow, so the FullCro side
        # can be replayed alone from the same parent seed.
        report = flow.compare(network, rng=5)
        _, fullcro_rng = spawn_rng(5, 2)
        alone = flow.run_baseline(network, rng=fullcro_rng)
        assert alone.cost.wirelength_um == pytest.approx(report.fullcro.cost.wirelength_um)
        assert alone.cost.area_um2 == pytest.approx(report.fullcro.cost.area_um2)

    def test_compare_is_deterministic(self, flow, network):
        a = flow.compare(network, rng=8)
        b = flow.compare(network, rng=8)
        assert a.autoncs.cost.wirelength_um == pytest.approx(b.autoncs.cost.wirelength_um)
        assert a.fullcro.cost.wirelength_um == pytest.approx(b.fullcro.cost.wirelength_um)
