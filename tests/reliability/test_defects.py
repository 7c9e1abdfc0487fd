"""Tests for defect-rate configuration and defect-map sampling."""

import numpy as np
import pytest

from repro.mapping.netlist import CrossbarInstance
from repro.reliability import (
    DefectMap,
    DefectRates,
    count_lost_connections,
    lost_connections,
    sample_defect_map,
    sample_instance_defects,
)
from repro.reliability.defects import InstanceDefects


class TestDefectRates:
    def test_defaults_are_defect_free(self):
        rates = DefectRates()
        assert not rates.any_defects

    def test_nonzero_rate_flags_defects(self):
        assert DefectRates(cell_stuck_off=0.01).any_defects
        assert DefectRates(row_line=0.01).any_defects

    @pytest.mark.parametrize("field", ["cell_stuck_off", "cell_stuck_on",
                                       "row_line", "col_line"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError):
            DefectRates(**{field: -0.1})
        with pytest.raises(ValueError):
            DefectRates(**{field: 1.5})

    def test_stuck_rates_cannot_exceed_one_combined(self):
        with pytest.raises(ValueError):
            DefectRates(cell_stuck_off=0.7, cell_stuck_on=0.6)

    def test_coerce_scalar_is_stuck_off(self):
        rates = DefectRates.coerce(0.05)
        assert rates.cell_stuck_off == pytest.approx(0.05)
        assert rates.cell_stuck_on == 0.0

    def test_coerce_passthrough(self):
        rates = DefectRates(row_line=0.1)
        assert DefectRates.coerce(rates) is rates


class TestInstanceDefects:
    def test_pristine_has_no_dead_cells(self):
        defects = InstanceDefects.pristine(8)
        assert defects.num_dead_cells == 0
        assert not defects.fully_defective

    def test_dead_mask_combines_cells_and_lines(self):
        defects = InstanceDefects.pristine(4)
        defects.stuck_off[0, 0] = True
        defects.dead_rows[2] = True
        defects.dead_cols[3] = True
        mask = defects.dead_mask()
        assert mask[0, 0] and mask[2].all() and mask[:, 3].all()
        # 1 stuck cell + row line (4) + col line (4) - overlap (1)
        assert defects.num_dead_cells == 8

    def test_stuck_both_ways_rejected(self):
        stuck = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="stuck-off and stuck-on"):
            InstanceDefects(size=2, stuck_off=stuck, stuck_on=stuck,
                            dead_rows=np.zeros(2, bool), dead_cols=np.zeros(2, bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            InstanceDefects(size=3, stuck_off=np.zeros((2, 2), bool),
                            stuck_on=np.zeros((3, 3), bool),
                            dead_rows=np.zeros(3, bool), dead_cols=np.zeros(3, bool))

    def test_fully_defective_via_lines(self):
        defects = InstanceDefects.pristine(4)
        defects.dead_rows[:] = True
        assert defects.fully_defective


class TestSampling:
    def test_zero_rates_sample_pristine(self):
        defects = sample_instance_defects(16, DefectRates(), rng=0)
        assert defects.num_dead_cells == 0

    def test_seeded_sampling_is_deterministic(self):
        rates = DefectRates(cell_stuck_off=0.2, cell_stuck_on=0.05,
                            row_line=0.1, col_line=0.1)
        a = sample_instance_defects(32, rates, rng=7)
        b = sample_instance_defects(32, rates, rng=7)
        assert np.array_equal(a.stuck_off, b.stuck_off)
        assert np.array_equal(a.stuck_on, b.stuck_on)
        assert np.array_equal(a.dead_rows, b.dead_rows)
        assert np.array_equal(a.dead_cols, b.dead_cols)

    def test_certain_stuck_off_kills_every_cell(self):
        defects = sample_instance_defects(8, DefectRates(cell_stuck_off=1.0), rng=0)
        assert defects.fully_defective

    def test_stuck_masks_are_exclusive(self):
        rates = DefectRates(cell_stuck_off=0.5, cell_stuck_on=0.5)
        defects = sample_instance_defects(64, rates, rng=3)
        assert not np.any(defects.stuck_off & defects.stuck_on)


@pytest.fixture()
def instance():
    # cluster {3, 5} on a 4x4 crossbar, both directed connections present
    return CrossbarInstance(rows=(3, 5), cols=(3, 5), size=4,
                            connections=((3, 5), (5, 3)))


class TestLostConnections:
    def test_local_cells_follow_membership_order(self, instance):
        rows_local, cols_local = instance.local_cells()
        assert rows_local.tolist() == [0, 1]  # 3 -> 0, 5 -> 1
        assert cols_local.tolist() == [1, 0]

    def test_pristine_loses_nothing(self, instance):
        defects = InstanceDefects.pristine(4)
        np.testing.assert_array_equal(lost_connections(instance, defects), np.empty((0, 2)))
        assert count_lost_connections(instance, defects) == 0

    def test_stuck_cell_loses_exactly_its_connection(self, instance):
        defects = InstanceDefects.pristine(4)
        defects.stuck_off[0, 1] = True  # local cell of connection (3, 5)
        np.testing.assert_array_equal(lost_connections(instance, defects), [(3, 5)])
        assert count_lost_connections(instance, defects) == 1

    def test_dead_row_loses_all_connections_of_that_neuron(self, instance):
        defects = InstanceDefects.pristine(4)
        defects.dead_rows[0] = True  # neuron 3's row
        np.testing.assert_array_equal(lost_connections(instance, defects), [(3, 5)])

    def test_undersized_crossbar_is_infeasible(self, instance):
        defects = InstanceDefects.pristine(1)
        with pytest.raises(ValueError, match="cannot host"):
            lost_connections(instance, defects)
        # fast path returns the infeasible sentinel instead of raising
        assert count_lost_connections(instance, defects) == len(instance.connections) + 1


class TestDefectMapSampling:
    def test_one_entry_per_instance(self, small_mapping):
        defect_map = sample_defect_map(small_mapping, 0.1, rng=0)
        assert defect_map.num_instances == small_mapping.num_crossbars
        for defects, instance in zip(defect_map.instances, small_mapping.instances):
            assert defects.size == instance.size

    def test_spares_extend_the_pool(self, small_mapping):
        defect_map = sample_defect_map(small_mapping, 0.1, rng=0, spare_instances=3)
        assert defect_map.num_instances == small_mapping.num_crossbars + 3
        largest = max(i.size for i in small_mapping.instances)
        assert all(d.size == largest for d in defect_map.instances[-3:])
        assert defect_map.metadata["spare_instances"] == 3

    def test_spare_size_must_be_in_library(self, small_mapping):
        with pytest.raises(ValueError, match="library"):
            sample_defect_map(small_mapping, 0.1, rng=0,
                              spare_instances=1, spare_size=7)

    def test_attach_and_subset(self, small_mapping):
        defect_map = sample_defect_map(small_mapping, 0.2, rng=1)
        defect_map.attach(small_mapping)
        assert small_mapping.metadata["defect_map"] is defect_map
        sub = defect_map.subset([0])
        assert sub.num_instances == 1
        assert sub.instances[0] is defect_map.instances[0]

    def test_zero_rate_pool_is_pristine(self, small_mapping):
        defect_map = sample_defect_map(small_mapping, 0.0, rng=2)
        assert defect_map.dead_cell_fraction() == 0.0
        assert not defect_map.rates.any_defects

    def test_negative_spares_rejected(self, small_mapping):
        with pytest.raises(ValueError, match="spare_instances"):
            sample_defect_map(small_mapping, 0.1, spare_instances=-1)


def test_empty_defect_map_fraction():
    assert DefectMap(rates=DefectRates(), instances=[]).dead_cell_fraction() == 0.0
