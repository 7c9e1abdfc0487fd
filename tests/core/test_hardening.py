"""Tests for the hardened AutoNCS pipeline: StageError, fallbacks, diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.autoncs as autoncs_module
from repro.core import AutoNCS, StageError
from repro.core.config import fast_config
from repro.mapping import autoncs_mapping
from repro.networks import ConnectionMatrix, random_sparse_network
from repro.physical.placement.placer import place as real_place
from repro.utils.rng import spawn_rng
from repro.verify import verify_flow


@pytest.fixture(scope="module")
def network():
    return random_sparse_network(60, density=0.08, rng=2)


@pytest.fixture()
def flow():
    return AutoNCS(fast_config())


@pytest.fixture(scope="module")
def mapping(network):
    flow = AutoNCS(fast_config())
    return autoncs_mapping(flow.cluster(network, rng=3), library=flow.library)


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
    def test_diverged_lambda_loop_keeps_the_last_finite_stage(
        self, flow, mapping, diverge_at_stage
    ):
        # λ stage 2 goes non-finite: the placer drops it and legalizes
        # stage 1, exactly as a one-stage schedule would.
        one_stage = replace(flow.config.placement, max_lambda_stages=1)
        expected = real_place(mapping.netlist, config=one_stage, rng=4)
        stages_run = diverge_at_stage(2)
        placement = real_place(mapping.netlist, config=flow.config.placement, rng=4)
        assert stages_run == [2]
        assert placement.metadata["diverged"] == "non-finite objective at lambda stage 2"
        assert len(placement.metadata["stages"]) == 1
        assert placement.x.tobytes() == expected.x.tobytes()
        assert placement.y.tobytes() == expected.y.tobytes()

    def test_flow_records_one_placement_fallback_and_verifies(
        self, flow, network, diverge_at_stage
    ):
        diverge_at_stage(2)
        result = flow.run(network, rng=3)
        (fallback,) = result.metadata["fallbacks"]
        assert fallback["stage"] == "placement"
        assert fallback["reason"] == "non-finite objective at lambda stage 2"
        assert list(result.stage_seconds) == ["isc", "mapping", "placement", "routing", "cost"]
        assert np.all(np.isfinite(result.design.placement.x))
        assert verify_flow(result).passed

    def test_divergence_at_the_first_stage_keeps_the_seed_snap(
        self, flow, mapping, diverge_at_stage
    ):
        diverge_at_stage(1)
        placement = real_place(mapping.netlist, config=flow.config.placement, rng=4)
        assert placement.metadata["stages"] == []
        assert placement.metadata["chosen_snapshot"] == "seed"
        assert placement.metadata["diverged"] == "non-finite objective at lambda stage 1"
        assert np.all(np.isfinite(placement.x)) and np.all(np.isfinite(placement.y))


class TestRoutingRetry:
    """The flow routes once: there is no relaxed-capacity retry."""

    def test_persistent_failure_raises_stage_error(self, flow, network, monkeypatch):
        placements = []

        def dead_route(netlist, placement, **kwargs):
            placements.append(placement)
            raise RuntimeError("unroutable")

        monkeypatch.setattr(autoncs_module, "route", dead_route)
        with pytest.raises(StageError, match="RuntimeError: unroutable") as excinfo:
            flow.run(network, rng=3)
        (placement,) = placements
        assert excinfo.value.stage == "routing"
        assert set(excinfo.value.partial) == {"mapping", "placement"}
        assert excinfo.value.partial["placement"] is placement


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
