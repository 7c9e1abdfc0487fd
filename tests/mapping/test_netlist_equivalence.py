"""The array netlist reproduces the object netlist it replaced, bit for bit.

The references below are the earlier ``build_netlist``, which built one
frozen ``Cell`` per cell and one ``Wire`` per wire, the array views that
placement and routing read from those objects, and the loops that walked
them: the per-wire delay of the cost model, the per-wire pin bins of both
routers, the annealer's incident-wire lists and the seed's neighbour
lists.  Every check compares the reference with the current code on
AutoNCS-style (``rows == cols``) and FullCro-style (``rows != cols``)
instances, empty instance and synapse lists, every library size and a
single neuron, under the default library and under one whose small
crossbars fall below the wire-weight floor; float arrays are compared
byte for byte.  The last checks pin that ``Netlist`` rejects each
malformed input naming its first bad cell or wire.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.library import CrossbarLibrary
from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.mapping.netlist import CellKind, CrossbarInstance, Netlist, build_netlist
from repro.physical.cost import wire_delays_ns
from repro.physical.layout import Placement
from repro.physical.placement.seed import connectivity_seed
from repro.physical.routing.grid import RoutingGrid
from repro.physical.routing.router import _wire_pins

LIBRARY = CrossbarLibrary()
#: Near-zero base delay: sizes 2 and 8 get wire weights under the 0.05 floor.
FLOORED_LIBRARY = CrossbarLibrary(
    sizes=(2, 8, 64), technology=Technology(crossbar_delay_base_ns=1e-3)
)
LIBRARIES = (LIBRARY, FLOORED_LIBRARY)
_MIN_WIRE_WEIGHT = 0.05
_KIND_CODES = {
    "neuron": CellKind.NEURON, "crossbar": CellKind.CROSSBAR, "synapse": CellKind.SYNAPSE
}


# ----------------------------------------------------------------------
# Reference: the object netlist and the loops that read it
# ----------------------------------------------------------------------
class _OldCell:
    def __init__(self, name, kind, width, height, intrinsic_delay_ns=0.0):
        if width <= 0 or height <= 0:
            raise ValueError(f"cell {name}: width/height must be > 0")
        if intrinsic_delay_ns < 0:
            raise ValueError(f"cell {name}: intrinsic_delay_ns must be >= 0")
        self.name, self.kind = name, kind
        self.width, self.height = width, height
        self.intrinsic_delay_ns = intrinsic_delay_ns


class _OldWire:
    def __init__(self, source, target, weight=1.0, name=""):
        if source == target:
            raise ValueError(f"wire {name!r} connects a cell to itself")
        if weight <= 0:
            raise ValueError(f"wire {name!r}: weight must be > 0, got {weight}")
        self.source, self.target, self.weight, self.name = source, target, weight, name


def _old_build_netlist(n_neurons, instances, synapse_connections, library):
    technology = library.technology
    cells = []
    neuron_side = library.neuron.side_um
    for i in range(n_neurons):
        cells.append(_OldCell(f"neuron{i}", "neuron", neuron_side, neuron_side, 0.0))
    reference_delay = technology.crossbar_delay_ns(library.max_size)
    wires = []
    for idx, instance in enumerate(instances):
        spec = library.spec(instance.size)
        cell_index = len(cells)
        cells.append(
            _OldCell(f"xbar{idx}", "crossbar", spec.side_um, spec.side_um, spec.delay_ns)
        )
        weight = max(spec.delay_ns / reference_delay, _MIN_WIRE_WEIGHT)
        for neuron in instance.rows:
            wires.append(_OldWire(neuron, cell_index, weight))
        for neuron in instance.cols:
            wires.append(_OldWire(cell_index, neuron, weight))
    synapse_side = library.synapse.side_um
    synapse_weight = max(library.synapse.delay_ns / reference_delay, _MIN_WIRE_WEIGHT)
    for idx, (i, j) in enumerate(synapse_connections):
        if not (0 <= i < n_neurons and 0 <= j < n_neurons):
            raise ValueError(f"synapse connection ({i}, {j}) outside neuron range")
        cell_index = len(cells)
        cells.append(
            _OldCell(
                f"syn{idx}", "synapse", synapse_side, synapse_side, library.synapse.delay_ns
            )
        )
        wires.append(_OldWire(i, cell_index, synapse_weight))
        wires.append(_OldWire(cell_index, j, synapse_weight))
    for wire in wires:
        if not (0 <= wire.source < len(cells) and 0 <= wire.target < len(cells)):
            raise ValueError("wire references cell indices outside the netlist")
    return cells, wires


def _old_arrays(cells, wires):
    """The array views the consumers built from the objects."""
    return {
        "kinds": np.array([_KIND_CODES[c.kind] for c in cells], dtype=np.int8),
        "widths": np.array([c.width for c in cells]),
        "heights": np.array([c.height for c in cells]),
        "delays_ns": np.array([c.intrinsic_delay_ns for c in cells]),
        "sources": np.array([w.source for w in wires], dtype=int),
        "targets": np.array([w.target for w in wires], dtype=int),
        "weights": np.array([w.weight for w in wires], dtype=float),
    }


def _old_wire_delays(cells, wires, lengths):
    delays = np.empty(len(wires))
    for index, wire in enumerate(wires):
        intrinsic = max(
            cells[wire.source].intrinsic_delay_ns, cells[wire.target].intrinsic_delay_ns
        )
        r = DEFAULT_TECHNOLOGY.wire_resistance_ohm_per_um
        c = DEFAULT_TECHNOLOGY.wire_capacitance_ff_per_um * 1e-15
        length = float(lengths[index])
        delays[index] = intrinsic + 0.5 * r * c * length * length * 1e9
    return delays


def _old_pin_bins(wires, placement, grid, index):
    wire = wires[index]
    sx, sy = placement.x[wire.source], placement.y[wire.source]
    tx, ty = placement.x[wire.target], placement.y[wire.target]

    def bin_of(x, y):
        bx = int((x - grid.origin[0]) / grid.bin_um)
        by = int((y - grid.origin[1]) / grid.bin_um)
        return (min(max(bx, 0), grid.nx - 1), min(max(by, 0), grid.ny - 1))

    return bin_of(sx, sy), bin_of(tx, ty), float(abs(sx - tx) + abs(sy - ty))


def _old_incident(n, sources, targets):
    incident = [[] for _ in range(n)]
    for w_idx in range(sources.shape[0]):
        incident[sources[w_idx]].append(w_idx)
        incident[targets[w_idx]].append(w_idx)
    return [np.asarray(lst, dtype=int) for lst in incident]


def _old_anchor_placement(kinds, sources, targets, x, y, side, rng):
    """The seed's neuron and synapse placement, as it walked wires in Python."""
    n = len(kinds)
    neuron_crossbars = {}
    for w_idx in range(sources.shape[0]):
        a, b = int(sources[w_idx]), int(targets[w_idx])
        for u, v in ((a, b), (b, a)):
            if kinds[u] == CellKind.NEURON and kinds[v] == CellKind.CROSSBAR:
                neuron_crossbars.setdefault(u, []).append(v)
    jitter = max(0.01 * side, 0.5)
    for i in range(n):
        if kinds[i] != CellKind.NEURON:
            continue
        incident = neuron_crossbars.get(i)
        if incident:
            x[i] = float(np.mean([x[j] for j in incident])) + rng.uniform(-jitter, jitter)
            y[i] = float(np.mean([y[j] for j in incident])) + rng.uniform(-jitter, jitter)
        else:
            x[i] = rng.uniform(0.0, side)
            y[i] = rng.uniform(0.0, side)
    neighbours = {}
    for w_idx in range(sources.shape[0]):
        a, b = int(sources[w_idx]), int(targets[w_idx])
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    for i in range(n):
        if kinds[i] != CellKind.SYNAPSE:
            continue
        ends = neighbours.get(i, [])
        if ends:
            x[i] = float(np.mean([x[j] for j in ends])) + rng.uniform(-jitter, jitter)
            y[i] = float(np.mean([y[j] for j in ends])) + rng.uniform(-jitter, jitter)
        else:
            x[i] = rng.uniform(0.0, side)
            y[i] = rng.uniform(0.0, side)
    return x, y


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def mapped_designs(draw, max_neurons=40):
    """``(n, instances, synapses, library)``, instances in the AutoNCS or
    the FullCro style."""
    library = draw(st.sampled_from(LIBRARIES))
    n = draw(st.integers(1, max_neurons))
    instances = []
    for _ in range(draw(st.integers(0, 5))):
        size = draw(st.sampled_from(library.sizes))
        neurons = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, size, 16))
        rows = tuple(draw(neurons))
        autoncs_style = draw(st.booleans())
        cols = rows if autoncs_style else tuple(draw(neurons))
        instances.append(CrossbarInstance(rows=rows, cols=cols, size=size, connections=()))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    synapses = draw(st.lists(pair, max_size=20))
    return n, instances, synapses, library


def _assert_same_arrays(netlist, reference):
    for name, expected in reference.items():
        actual = getattr(netlist, name)
        assert actual.shape == expected.shape, name
        if expected.dtype.kind == "f":
            assert actual.dtype == np.float64 and actual.tobytes() == expected.tobytes(), name
        else:
            assert actual.tolist() == expected.tolist(), name


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
class TestBuildNetlistEquivalence:
    @settings(max_examples=150)
    @given(mapped_designs())
    def test_arrays_match_object_views(self, design):
        cells, wires = _old_build_netlist(*design)
        netlist = build_netlist(*design)
        _assert_same_arrays(netlist, _old_arrays(cells, wires))
        assert netlist.num_cells == len(cells) and netlist.num_wires == len(wires)

    @pytest.mark.parametrize(
        "library, size", [(library, size) for library in LIBRARIES for size in library.sizes]
    )
    def test_every_library_size(self, library, size):
        instances = [
            CrossbarInstance(rows=(0, 1), cols=(0, 1), size=size, connections=()),
            CrossbarInstance(rows=(1,), cols=(0,), size=size, connections=()),
        ]
        cells, wires = _old_build_netlist(2, instances, [(1, 0)], library)
        _assert_same_arrays(
            build_netlist(2, instances, [(1, 0)], library), _old_arrays(cells, wires)
        )

    @pytest.mark.parametrize("synapses", [[], [(0, 0)]])
    def test_single_neuron_without_instances(self, synapses):
        cells, wires = _old_build_netlist(1, [], synapses, LIBRARY)
        _assert_same_arrays(build_netlist(1, [], synapses, LIBRARY), _old_arrays(cells, wires))

    def test_total_cell_area_matches_up_to_rounding(self):
        instances = [CrossbarInstance(rows=(0,), cols=(1,), size=s, connections=())
                     for s in LIBRARY.sizes]
        cells, _ = _old_build_netlist(2, instances, [(0, 1)] * 5, LIBRARY)
        expected = sum(c.width * c.height for c in cells)
        netlist = build_netlist(2, instances, [(0, 1)] * 5, LIBRARY)
        assert netlist.total_cell_area == pytest.approx(expected, rel=1e-12)


class TestConsumerEquivalence:
    @settings(max_examples=100)
    @given(mapped_designs(), st.data())
    def test_wire_delays(self, design, data):
        cells, wires = _old_build_netlist(*design)
        netlist = build_netlist(*design)
        steps = st.one_of(st.integers(0, 200).map(lambda k: 4.0 * k), st.floats(0.0, 500.0))
        lengths = np.array(data.draw(st.lists(steps, min_size=len(wires), max_size=len(wires))))
        routing = SimpleNamespace(lengths=lengths)
        expected = _old_wire_delays(cells, wires, lengths)
        assert wire_delays_ns(netlist, routing).tobytes() == expected.tobytes()

    @settings(max_examples=100)
    @given(mapped_designs(), st.data())
    def test_pin_bins(self, design, data):
        _, wires = _old_build_netlist(*design)
        netlist = build_netlist(*design)
        coordinate = st.floats(-20.0, 220.0, allow_nan=False)
        cells = netlist.num_cells
        x = np.array(data.draw(st.lists(coordinate, min_size=cells, max_size=cells)))
        y = np.array(data.draw(st.lists(coordinate, min_size=cells, max_size=cells)))
        placement = Placement(x=x, y=y, widths=netlist.widths, heights=netlist.heights)
        bin_um = data.draw(st.sampled_from([1.0, 3.7, 4.0, 25.0]))
        grid = RoutingGrid((-5.0, -3.0), 200.0, 190.0, bin_um, 2)
        pins = _wire_pins(netlist, placement, grid)
        for index in range(len(wires)):
            start, goal, length = _old_pin_bins(wires, placement, grid, index)
            assert pins.starts[index] == start and pins.goals[index] == goal
            assert type(pins.starts[index][0]) is int
            assert pins.same_bin_lengths[index] == length

    @settings(max_examples=100)
    @given(mapped_designs())
    def test_incident_wires(self, design):
        netlist = build_netlist(*design)
        expected = _old_incident(netlist.num_cells, netlist.sources, netlist.targets)
        actual = netlist.incident_wires()
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @settings(max_examples=60)
    @given(mapped_designs(max_neurons=30), st.integers(0, 2**32 - 1))
    def test_seed_anchor_order(self, design, seed):
        netlist = build_netlist(*design)
        widths, heights = netlist.widths * 1.8, netlist.heights * 1.8
        rng = np.random.default_rng(seed)
        x, y = connectivity_seed(netlist, widths, heights, rng=rng)
        # Replay: the crossbar slots come first and draw nothing, so the
        # reference starts from the new code's crossbar coordinates.
        crossbars = netlist.kinds == CellKind.CROSSBAR
        ref_x = np.where(crossbars, x, 0.0)
        ref_y = np.where(crossbars, y, 0.0)
        side = float(np.sqrt(max(float(np.sum(widths * heights)), 1e-9) * 1.2))
        ref_rng = np.random.default_rng(seed)
        _old_anchor_placement(
            netlist.kinds.tolist(), netlist.sources, netlist.targets, ref_x, ref_y, side, ref_rng
        )
        assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ----------------------------------------------------------------------
# Rejections name the first bad index
# ----------------------------------------------------------------------
def _arrays(netlist):
    return {
        name: getattr(netlist, name).copy()
        for name in ("kinds", "widths", "heights", "delays_ns", "sources", "targets", "weights")
    }


CELL_FAULTS = {
    "widths": ("width", [np.nan, 0.0, -1.0, np.inf]),
    "heights": ("height", [np.nan, 0.0, -2.5, np.inf]),
    "delays_ns": ("delay", [np.nan, -1e-3, np.inf]),
}


class TestRejections:
    @settings(max_examples=100)
    @given(mapped_designs(), st.sampled_from(sorted(CELL_FAULTS)), st.data())
    def test_bad_cell_value(self, design, name, data):
        arrays = _arrays(build_netlist(*design))
        n = arrays["kinds"].shape[0]
        bad = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        quantity, values = CELL_FAULTS[name]
        for index in bad:
            arrays[name][index] = data.draw(st.sampled_from(values))
        with pytest.raises(ValueError, match=rf"^cell {min(bad)}: {quantity} "):
            Netlist(**arrays)

    @settings(max_examples=100)
    @given(mapped_designs(), st.data())
    def test_bad_weight(self, design, data):
        arrays = _arrays(build_netlist(*design))
        m = arrays["weights"].shape[0]
        if m == 0:
            return
        bad = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
        for index in bad:
            arrays["weights"][index] = data.draw(st.sampled_from([np.nan, 0.0, -0.5, np.inf]))
        with pytest.raises(ValueError, match=rf"^wire {min(bad)}: weight "):
            Netlist(**arrays)

    @settings(max_examples=100)
    @given(mapped_designs(), st.sampled_from(["sources", "targets"]), st.data())
    def test_out_of_range_endpoint(self, design, name, data):
        arrays = _arrays(build_netlist(*design))
        n, m = arrays["kinds"].shape[0], arrays["sources"].shape[0]
        if m == 0:
            return
        bad = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
        for index in bad:
            arrays[name][index] = data.draw(st.sampled_from([-1, n, n + 7]))
        with pytest.raises(ValueError, match=rf"^wire {min(bad)}: {name[:-1]} .* in \[0, {n}\)"):
            Netlist(**arrays)

    @settings(max_examples=100)
    @given(mapped_designs(), st.data())
    def test_self_loop(self, design, data):
        arrays = _arrays(build_netlist(*design))
        m = arrays["sources"].shape[0]
        if m == 0:
            return
        bad = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
        arrays["targets"][bad] = arrays["sources"][bad]
        with pytest.raises(ValueError, match=rf"^wire {min(bad)}: target .* other than its source"):
            Netlist(**arrays)

    def test_unknown_kind(self):
        arrays = _arrays(build_netlist(3, [], [(0, 1)], LIBRARY))
        arrays["kinds"][2] = 7
        with pytest.raises(ValueError, match="^cell 2: kind 7 must be a CellKind code"):
            Netlist(**arrays)

    @settings(max_examples=50)
    @given(st.integers(1, 10), st.data())
    def test_build_netlist_names_first_bad_synapse(self, n, data):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        synapses = data.draw(st.lists(pair, min_size=1, max_size=8))
        bad = data.draw(st.lists(st.integers(0, len(synapses) - 1), min_size=1, unique=True))
        for index in bad:
            synapses[index] = (synapses[index][0], n + index)
        with pytest.raises(ValueError, match=rf"^synapse {min(bad)}: .* outside neuron range"):
            build_netlist(n, [], synapses, LIBRARY)
