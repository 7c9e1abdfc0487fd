"""The placement seed's crossbar order is MSC's dense eigensolve, bit for bit.

``connectivity_seed`` used to solve its crossbar-affinity pencil
``L u = λ D u`` with its own inline ``scipy.linalg.eigh`` call.  It now
calls :func:`repro.clustering.spectral.dense_embedding`, which builds the
same degree floor and Laplacian and runs the same subset solve, and adds
the solver's divide-and-conquer retry.  The reference below is the seed
as it was, with the inline solve; every check asserts byte-equal
coordinates and an equal generator state afterwards.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutoNCS
from repro.core.config import fast_config
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.hardware.library import CrossbarLibrary
from repro.mapping import autoncs_mapping, fullcro_mapping
from repro.mapping.netlist import CellKind, CrossbarInstance, build_netlist
from repro.networks import random_sparse_network
from repro.physical.placement.seed import connectivity_seed

LIBRARY = CrossbarLibrary()


def _old_connectivity_seed(netlist, virtual_widths, virtual_heights, rng, fill_target=1.2):
    """The seed with its own inline Laplacian and subset ``eigh``."""
    n = netlist.num_cells
    if n == 0:
        return np.zeros(0), np.zeros(0)
    sources, targets, weights = netlist.sources, netlist.targets, netlist.weights
    kinds = netlist.kinds
    crossbars = np.flatnonzero(kinds == CellKind.CROSSBAR)
    total_area = float(np.sum(virtual_widths * virtual_heights))
    side = float(np.sqrt(max(total_area, 1e-9) * fill_target))
    x = np.zeros(n)
    y = np.zeros(n)
    k = len(crossbars)
    if k:
        adjacency = np.zeros((n, n))
        adjacency[sources, targets] += weights
        adjacency[targets, sources] += weights
        cells = np.arange(n)
        affinity = adjacency[np.ix_(crossbars, cells)] @ adjacency[np.ix_(cells, crossbars)]
        np.fill_diagonal(affinity, 0.0)
        if k > 3 and affinity.any():
            degree = np.maximum(affinity.sum(axis=1), 1e-9)
            laplacian = np.diag(degree) - affinity
            _, vectors = scipy.linalg.eigh(
                laplacian, np.diag(degree), subset_by_index=(0, min(2, k - 1))
            )
            v1 = vectors[:, 1] if vectors.shape[1] > 1 else np.arange(k, dtype=float)
            v2 = vectors[:, 2] if vectors.shape[1] > 2 else np.zeros(k)
        else:
            v1 = np.arange(k, dtype=float)
            v2 = np.zeros(k)
        columns = max(1, int(np.ceil(np.sqrt(k))))
        pitch = side / columns
        rows = (k + columns - 1) // columns
        slots = np.array(
            [
                ((col + 0.5) * pitch, (row + 0.5) * pitch)
                for row in range(rows)
                for col in range(columns)
            ]
        )

        def rescale(v):
            v = v - v.min()
            span = v.max()
            return (v / span if span > 0 else v) * side

        e1 = rescale(v1)
        e2 = rescale(v2)
        cost = (e1[:, None] - slots[None, :, 0]) ** 2 + (e2[:, None] - slots[None, :, 1]) ** 2
        assigned_rows, assigned_slots = scipy.optimize.linear_sum_assignment(cost)
        x[crossbars[assigned_rows]] = slots[assigned_slots, 0]
        y[crossbars[assigned_rows]] = slots[assigned_slots, 1]
    incident = netlist.incident_wires()
    jitter = max(0.01 * side, 0.5)
    for kind in (CellKind.NEURON, CellKind.SYNAPSE):
        for i in np.flatnonzero(kinds == kind):
            wires = incident[i]
            anchors = sources[wires] + targets[wires] - i
            if kind == CellKind.NEURON:
                anchors = anchors[kinds[anchors] == CellKind.CROSSBAR]
            if anchors.size:
                x[i] = float(np.mean(x[anchors])) + rng.uniform(-jitter, jitter)
                y[i] = float(np.mean(y[anchors])) + rng.uniform(-jitter, jitter)
            else:
                x[i] = rng.uniform(0.0, side)
                y[i] = rng.uniform(0.0, side)
    return x, y


@st.composite
def netlists(draw, max_neurons=40):
    """Netlists with 0–12 crossbars whose ports overlap, so most draws give
    more than three crossbars and a non-zero affinity (the eigensolve)."""
    n = draw(st.integers(2, max_neurons))
    instances = []
    for _ in range(draw(st.integers(0, 12))):
        size = draw(st.sampled_from(LIBRARY.sizes))
        neurons = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, size, 8))
        rows = tuple(draw(neurons))
        cols = rows if draw(st.booleans()) else tuple(draw(neurons))
        instances.append(CrossbarInstance(rows=rows, cols=cols, size=size, connections=()))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    synapses = draw(st.lists(pair, max_size=12))
    return build_netlist(n, instances, synapses, LIBRARY)


def _assert_same_seed(netlist, seed, omega=1.25):
    widths, heights = netlist.widths * omega, netlist.heights * omega
    rng = np.random.default_rng(seed)
    x, y = connectivity_seed(netlist, widths, heights, rng=rng)
    ref_rng = np.random.default_rng(seed)
    ref_x, ref_y = _old_connectivity_seed(netlist, widths, heights, rng=ref_rng)
    assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150)
@given(netlists(), st.integers(0, 2**32 - 1))
def test_seed_matches_inline_eigensolve(netlist, seed):
    _assert_same_seed(netlist, seed)


def _autoncs_netlist(index, dimension=120, seed=31):
    network = build_testbench(scaled_testbench(index, dimension), rng=seed).network
    flow = AutoNCS(fast_config())
    return autoncs_mapping(flow.cluster(network, rng=seed), library=flow.library).netlist


@pytest.mark.parametrize("index", [1, 2, 3])
def test_testbench_netlists_match(index):
    netlist = _autoncs_netlist(index)
    assert np.count_nonzero(netlist.kinds == CellKind.CROSSBAR) > 3
    _assert_same_seed(netlist, seed=index)


@pytest.mark.parametrize("neurons, density", [(120, 0.05), (200, 0.03), (300, 0.02)])
def test_fullcro_netlists_match(neurons, density):
    netlist = fullcro_mapping(random_sparse_network(neurons, density, rng=neurons)).netlist
    assert np.count_nonzero(netlist.kinds == CellKind.CROSSBAR) > 3
    _assert_same_seed(netlist, seed=neurons)


def test_seed_survives_a_subset_driver_failure(monkeypatch):
    # The inline solve raised here; the shared solver re-solves the whole
    # pencil with the divide-and-conquer driver and keeps its first pairs.
    netlist = _autoncs_netlist(1)
    widths, heights = netlist.widths * 1.25, netlist.heights * 1.25
    real_eigh = scipy.linalg.eigh

    def subset_fails(a, b=None, **kwargs):
        if "subset_by_index" in kwargs:
            raise scipy.linalg.LinAlgError("synthetic gvx failure")
        return real_eigh(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", subset_fails)
    with pytest.raises(scipy.linalg.LinAlgError):
        _old_connectivity_seed(netlist, widths, heights, rng=np.random.default_rng(5))
    x, y = connectivity_seed(netlist, widths, heights, rng=5)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    crossbars = netlist.kinds == CellKind.CROSSBAR
    slots = set(zip(x[crossbars].tolist(), y[crossbars].tolist()))
    assert len(slots) == int(crossbars.sum())
