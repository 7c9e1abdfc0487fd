"""Tests for netlist arrays, netlist building and fanin/fanout accounting."""

import numpy as np
import pytest

from repro.hardware.library import CrossbarLibrary
from repro.mapping.netlist import (
    CellKind,
    CrossbarInstance,
    Netlist,
    build_netlist,
    fanin_fanout_breakdown,
)


@pytest.fixture(scope="module")
def library():
    return CrossbarLibrary()


class TestCrossbarInstance:
    def test_utilization(self):
        inst = CrossbarInstance(rows=(0, 1), cols=(2, 3), size=16,
                               connections=((0, 2), (1, 3)))
        assert inst.utilized_connections == 2
        assert inst.utilization == pytest.approx(2 / 256)

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError, match="exceed"):
            CrossbarInstance(rows=tuple(range(17)), cols=(0,), size=16, connections=())

    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError, match="unique"):
            CrossbarInstance(rows=(0, 0), cols=(1,), size=16, connections=())

    def test_rejects_connection_outside(self):
        with pytest.raises(ValueError, match="outside"):
            CrossbarInstance(rows=(0,), cols=(1,), size=16, connections=((0, 2),))

    def test_rejects_duplicate_connection(self):
        with pytest.raises(ValueError, match="duplicate"):
            CrossbarInstance(rows=(0,), cols=(1,), size=16,
                             connections=((0, 1), (0, 1)))


def two_cells(**arrays):
    """A two-neuron, one-wire netlist with some arrays replaced."""
    base = dict(
        kinds=[CellKind.NEURON] * 2, widths=[1.0, 1.0], heights=[1.0, 1.0],
        delays_ns=[0.0, 0.0], sources=[0], targets=[1], weights=[1.0],
    )
    return Netlist(**{**base, **arrays})


class TestCellAndWire:
    def test_cell_area(self):
        assert two_cells(widths=[2.0, 1.0], heights=[3.0, 1.0]).total_cell_area == 7.0

    def test_cell_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="cell 1: width 0.0 must be finite and > 0"):
            two_cells(widths=[1.0, 0.0])

    def test_wire_rejects_self_loop(self):
        with pytest.raises(ValueError, match="wire 0: target 1 must be other than its source"):
            two_cells(sources=[1])

    def test_wire_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="wire 0: weight 0.0"):
            two_cells(weights=[0.0])

    def test_netlist_rejects_dangling_wire(self):
        with pytest.raises(ValueError, match=r"wire 0: target 5 must be a cell index in \[0, 2\)"):
            two_cells(targets=[5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            two_cells(heights=[1.0])

    def test_arrays_are_read_only(self):
        netlist = two_cells()
        assert netlist.widths.dtype == np.float64 and netlist.kinds.dtype == np.int8
        with pytest.raises(ValueError):
            netlist.widths[0] = 5.0


class TestBuildNetlist:
    def test_cell_layout(self, library):
        inst = CrossbarInstance(rows=(0, 1), cols=(0, 1), size=16,
                               connections=((0, 1),))
        netlist = build_netlist(4, [inst], [(2, 3)], library)
        # 4 neurons + 1 crossbar + 1 synapse
        assert netlist.num_cells == 6
        assert netlist.kinds.tolist() == [CellKind.NEURON] * 4 + [
            CellKind.CROSSBAR,
            CellKind.SYNAPSE,
        ]

    def test_wire_counts(self, library):
        inst = CrossbarInstance(rows=(0, 1), cols=(0, 1), size=16,
                               connections=((0, 1),))
        netlist = build_netlist(4, [inst], [(2, 3)], library)
        # 2 row wires + 2 col wires + 2 synapse wires
        assert netlist.num_wires == 6

    def test_wire_weights_scale_with_crossbar_delay(self, library):
        small = CrossbarInstance(rows=(0,), cols=(0,), size=16, connections=())
        large = CrossbarInstance(rows=(1,), cols=(1,), size=64, connections=())
        netlist = build_netlist(2, [small, large], [], library)
        # Wires: n0 -> x0, x0 -> n0, n1 -> x1, x1 -> n1.
        assert netlist.sources.tolist() == [0, 2, 1, 3]
        assert netlist.weights[2] > netlist.weights[0]

    def test_crossbar_cell_dimensions(self, library):
        inst = CrossbarInstance(rows=(0,), cols=(0,), size=32, connections=())
        netlist = build_netlist(1, [inst], [], library)
        assert netlist.widths[1] == pytest.approx(library.spec(32).side_um)
        assert netlist.delays_ns[1] == pytest.approx(library.spec(32).delay_ns)

    def test_rejects_bad_synapse_endpoint(self, library):
        with pytest.raises(ValueError, match="outside"):
            build_netlist(3, [], [(0, 9)], library)

    @pytest.mark.parametrize(
        "instances, message",
        [
            ([CrossbarInstance(rows=(3,), cols=(), size=16, connections=())],
             r"^crossbar instance 0: neuron 3 outside neuron range \[0, 2\)"),
            ([CrossbarInstance(rows=(0,), cols=(1,), size=16, connections=()),
              CrossbarInstance(rows=(1,), cols=(-1,), size=16, connections=())],
             r"^crossbar instance 1: neuron -1 outside"),
            ([CrossbarInstance(rows=(), cols=(), size=16, connections=()),
              CrossbarInstance(rows=(), cols=(2,), size=16, connections=())],
             r"^crossbar instance 1: neuron 2 outside"),
        ],
        ids=["row-past-range", "negative-column", "column-of-second-instance"],
    )
    def test_rejects_crossbar_port_outside_neuron_range(self, library, instances, message):
        with pytest.raises(ValueError, match=message):
            build_netlist(2, instances, [(0, 1)], library)

    def test_rejects_zero_neurons(self, library):
        with pytest.raises(ValueError):
            build_netlist(0, [], [], library)

    def test_total_cell_area_positive(self, library):
        netlist = build_netlist(3, [], [(0, 1)], library)
        assert netlist.total_cell_area > 0

    def test_wire_endpoints_arrays(self, library):
        netlist = build_netlist(3, [], [(0, 1), (1, 2)], library)
        assert netlist.sources.shape == netlist.targets.shape == netlist.weights.shape == (4,)
        # Per synapse: neuron -> synapse cell, then synapse cell -> neuron.
        assert netlist.sources.tolist() == [0, 3, 1, 4]
        assert netlist.targets.tolist() == [3, 1, 4, 2]


class TestFaninFanoutBreakdown:
    def test_counts(self):
        inst = CrossbarInstance(rows=(0, 1), cols=(1, 2), size=16,
                               connections=((0, 1),))
        breakdown = fanin_fanout_breakdown(4, [inst], [(3, 0)])
        # neuron 0: 1 crossbar row + 1 synapse = crossbar 1, synapse 1
        # neuron 1: row + col = 2 crossbar
        # neuron 2: 1 col
        # neuron 3: 1 synapse
        np.testing.assert_array_equal(breakdown.crossbar, [1, 2, 1, 0])
        np.testing.assert_array_equal(breakdown.synapse, [1, 0, 0, 1])
        np.testing.assert_array_equal(breakdown.total, [2, 2, 1, 1])
        assert breakdown.average_total == pytest.approx(1.5)
