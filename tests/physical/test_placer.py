"""Tests for the end-to-end placer (Algorithm 4) and cost evaluation."""

import numpy as np
import pytest

from repro.hardware.library import CrossbarLibrary
from repro.mapping.netlist import CrossbarInstance, build_netlist
from repro.observability import recording
from repro.physical.cost import CostWeights, PhysicalCost, evaluate_cost, wire_delays_ns
from repro.physical.layout import Placement
from repro.physical.placement.initial import initial_placement
from repro.physical.placement.placer import PlacementConfig, place
from repro.physical.routing.router import route


@pytest.fixture(scope="module")
def small_netlist():
    library = CrossbarLibrary()
    instances = [
        CrossbarInstance(rows=(0, 1, 2), cols=(0, 1, 2), size=16,
                         connections=((0, 1), (1, 2))),
        CrossbarInstance(rows=(3, 4), cols=(3, 4), size=16,
                         connections=((3, 4),)),
    ]
    return build_netlist(6, instances, [(2, 3), (5, 0)], library)


@pytest.fixture(scope="module")
def placed(small_netlist):
    config = PlacementConfig(max_lambda_stages=5, cg_iterations_per_stage=20)
    return place(small_netlist, config=config, rng=0)


class TestInitialPlacement:
    def test_shapes(self, rng):
        x, y = initial_placement(np.ones(10), np.ones(10), rng=rng)
        assert x.shape == y.shape == (10,)

    def test_empty(self):
        x, y = initial_placement(np.zeros(0), np.zeros(0))
        assert x.size == 0

    def test_moderate_overlap(self, rng):
        from repro.physical.placement.density import true_overlap

        widths = rng.uniform(1, 10, 50)
        heights = rng.uniform(1, 10, 50)
        x, y = initial_placement(widths, heights, rng=0)
        total = float(np.sum(widths * heights))
        assert true_overlap(x, y, widths, heights) / total < 1.0

    def test_rejects_bad_whitespace(self):
        for factor in (0.5, float("nan")):
            with pytest.raises(ValueError, match="whitespace_factor"):
                initial_placement(np.ones(3), np.ones(3), whitespace_factor=factor)

    def test_rejects_bad_compression(self):
        with pytest.raises(ValueError):
            initial_placement(np.ones(3), np.ones(3), compression=0.0)


class TestPlace:
    def test_output_shape(self, placed, small_netlist):
        assert placed.num_cells == small_netlist.num_cells
        assert np.all(placed.widths == small_netlist.widths)

    def test_low_final_overlap(self, placed):
        # legalization runs on virtual (inflated) dims; physical overlap
        # must be near zero.
        assert placed.overlap_ratio() < 0.02

    def test_positive_area(self, placed):
        assert placed.area > 0

    def test_origin_normalized(self, placed):
        xmin, ymin, _, _ = placed.bounding_box()
        assert xmin == pytest.approx(0.0, abs=1e-6)
        assert ymin == pytest.approx(0.0, abs=1e-6)

    def test_metadata_stages(self, placed):
        assert len(placed.metadata["stages"]) >= 1
        assert placed.metadata["chosen_snapshot"] in ("seed", "refined")
        assert placed.metadata["seed"] in ("connectivity", "area_grid")

    def test_connected_cells_near_each_other(self, small_netlist):
        config = PlacementConfig(max_lambda_stages=6, cg_iterations_per_stage=30)
        placement = place(small_netlist, config=config, rng=1)
        # wirelength after placement beats a random shuffle of the same sites
        sources, targets = small_netlist.sources, small_netlist.targets
        optimized = placement.hpwl(sources, targets)
        rng = np.random.default_rng(5)
        perm = rng.permutation(placement.num_cells)
        shuffled = Placement(
            x=placement.x[perm], y=placement.y[perm],
            widths=placement.widths, heights=placement.heights,
        )
        assert optimized < shuffled.hpwl(sources, targets)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlacementConfig(max_lambda_stages=0)
        with pytest.raises(ValueError):
            PlacementConfig(cg_iterations_per_stage=0)
        # Whole floats and numpy integers are stored as the ints range() needs.
        config = PlacementConfig(max_lambda_stages=3.0, cg_iterations_per_stage=np.int64(5))
        assert type(config.max_lambda_stages) is int and config.max_lambda_stages == 3
        assert type(config.cg_iterations_per_stage) is int and config.cg_iterations_per_stage == 5

    @pytest.mark.parametrize("stages", [float("nan"), 2.5, float("inf")])
    def test_rejects_nan_or_fractional_max_lambda_stages(self, stages):
        with pytest.raises(ValueError, match="max_lambda_stages"):
            PlacementConfig(max_lambda_stages=stages)

    @pytest.mark.parametrize("iterations", [float("nan"), 2.5, float("inf")])
    def test_rejects_nan_or_fractional_cg_iterations_per_stage(self, iterations):
        with pytest.raises(ValueError, match="cg_iterations_per_stage"):
            PlacementConfig(cg_iterations_per_stage=iterations)

    def test_counters_explain_the_run(self, small_netlist):
        config = PlacementConfig(max_lambda_stages=3, cg_iterations_per_stage=10)
        with recording() as recorder:
            placement = place(small_netlist, config=config, rng=7)
        counts = recorder.snapshot()
        n = small_netlist.num_cells
        evals = counts.get("placement.density_evals")
        assert 0 < counts.get("placement.density_pairs") <= evals * n * (n - 1) // 2
        lost = int(placement.metadata["chosen_snapshot"] == "seed")
        assert counts.get("placement.seed_snapshot_chosen") == lost

    def test_trace_shows_where_the_wirelength_goes(self, small_netlist):
        config = PlacementConfig(max_lambda_stages=3, cg_iterations_per_stage=10)
        with recording() as recorder:
            placement = place(small_netlist, config=config, rng=7)
        stages = placement.metadata["stages"]
        (loop,) = recorder.tracer.named("placement.penalty_loop")
        assert loop.attributes["hpwl_seed"] == placement.metadata["hpwl_seed"]
        assert loop.attributes["hpwl_stages"] == [stage["hpwl"] for stage in stages]
        assert loop.attributes["hpwl_refined"] == stages[-1]["hpwl"]
        assert all(stage["hpwl"] > 0 for stage in stages)
        # The list is swept at least once, and at most once per evaluation.
        counts = recorder.snapshot()
        assert 1 <= counts.get("placement.pair_rebuilds") <= counts.get(
            "placement.density_evals"
        )

    def test_deterministic_given_seed(self, small_netlist):
        config = PlacementConfig(max_lambda_stages=3, cg_iterations_per_stage=10)
        a = place(small_netlist, config=config, rng=7)
        b = place(small_netlist, config=config, rng=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.metadata["stages"] == b.metadata["stages"]


class TestCostEvaluation:
    def test_cost_fields(self, placed, small_netlist):
        routing = route(small_netlist, placed)
        cost = evaluate_cost(small_netlist, placed, routing)
        assert cost.wirelength_um == pytest.approx(routing.total_wirelength_um)
        assert cost.area_um2 == pytest.approx(placed.area)
        assert cost.average_delay_ns > 0
        assert cost.total == pytest.approx(
            cost.wirelength_um + cost.area_um2 + cost.average_delay_ns
        )

    def test_weights_applied(self, placed, small_netlist):
        routing = route(small_netlist, placed)
        cost = evaluate_cost(
            small_netlist, placed, routing, weights=CostWeights(alpha=0, beta=0, delta=2)
        )
        assert cost.total == pytest.approx(2 * cost.average_delay_ns)

    def test_wire_delays_include_intrinsic(self, placed, small_netlist):
        routing = route(small_netlist, placed)
        delays = wire_delays_ns(small_netlist, routing)
        assert delays.shape == (small_netlist.num_wires,)
        # crossbar wires carry at least the 16x16 crossbar delay
        library = CrossbarLibrary()
        assert delays.max() >= library.spec(16).delay_ns

    def test_cost_weights_validation(self):
        with pytest.raises(ValueError):
            CostWeights(alpha=-1)

    @pytest.mark.parametrize("name", ["alpha", "beta", "delta"])
    def test_cost_weights_reject_nan(self, name):
        with pytest.raises(ValueError, match=name):
            CostWeights(**{name: float("nan")})

    def test_physical_cost_immutable(self):
        cost = PhysicalCost(wirelength_um=1.0, area_um2=2.0, average_delay_ns=3.0)
        with pytest.raises(AttributeError):
            cost.wirelength_um = 5.0


class TestPlacementContainer:
    def test_bounding_box_empty(self):
        placement = Placement(x=np.zeros(0), y=np.zeros(0),
                              widths=np.zeros(0), heights=np.zeros(0))
        assert placement.area == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Placement(x=np.zeros(3), y=np.zeros(2), widths=np.ones(3), heights=np.ones(3))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Placement(x=np.zeros(2), y=np.zeros(2), widths=np.zeros(2), heights=np.ones(2))

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["widths", "heights"])
    def test_rejects_bad_dims_naming_the_array(self, name, bad):
        dims = {"widths": np.ones(2), "heights": np.ones(2), name: np.array([1.0, bad])}
        with pytest.raises(ValueError, match=name):
            Placement(x=[0.0, 1.0], y=[0.0, 0.0], **dims)

    def test_copy_independent(self):
        placement = Placement(x=np.zeros(2), y=np.zeros(2),
                              widths=np.ones(2), heights=np.ones(2))
        clone = placement.copy()
        clone.x[0] = 99.0
        assert placement.x[0] == 0.0
