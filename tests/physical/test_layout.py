"""Tests for layout containers."""

import numpy as np
import pytest

from repro.physical.layout import Placement, PhysicalDesign


class TestPlacementGeometry:
    def test_bounding_box(self):
        placement = Placement(
            x=np.array([0.0, 10.0]),
            y=np.array([0.0, 5.0]),
            widths=np.array([2.0, 4.0]),
            heights=np.array([2.0, 2.0]),
        )
        assert placement.bounding_box() == (-1.0, -1.0, 12.0, 6.0)
        assert placement.area == pytest.approx(13.0 * 7.0)

    def test_hpwl(self):
        placement = Placement(
            x=np.array([0.0, 3.0]),
            y=np.array([0.0, 4.0]),
            widths=np.ones(2),
            heights=np.ones(2),
        )
        assert placement.hpwl(np.array([0]), np.array([1])) == pytest.approx(7.0)

    def test_overlap_ratio(self):
        def ratio(second_x):
            return Placement(
                x=np.array([0.0, second_x]),
                y=np.array([0.0, 0.0]),
                widths=np.array([4.0, 4.0]),
                heights=np.array([4.0, 4.0]),
            ).overlap_ratio()

        assert ratio(10.0) == 0.0
        # Shifted by half a width, the two 4x4 cells share a 2x4 strip.
        assert ratio(2.0) == pytest.approx(8.0 / 32.0)


class TestPhysicalDesign:
    def test_summary(self):
        class FakeCost:
            wirelength_um = 10.0
            area_um2 = 20.0
            average_delay_ns = 1.5
            total = 31.5

        class FakeMapping:
            name = "X"

        design = PhysicalDesign(
            mapping=FakeMapping(), placement=None, routing=None, cost=FakeCost()
        )
        summary = design.summary()
        assert summary["design"] == "X"
        assert summary["wirelength_um"] == 10.0
        assert summary["cost"] == 31.5
