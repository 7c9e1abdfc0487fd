"""A mapping's pairs as ``int64`` arrays give what the tuple code gave.

Crossbar rows, columns and connections, ISC's outliers and a mapping's
discrete synapses used to be tuples of Python ints, built from arrays by
every producer and turned back into arrays or walked pair by pair by every
consumer.  The references below are that code: ISC's per-iteration crossbar
extraction, the tier stitch, the FullCro tiling and the repair pass's
demotion loop as producers; the netlist assembly, the fanin/fanout count,
the simulator's weight planes, the defect model's local cells, the energy
model's row pulses, the exact-cover check and the verifier's coverage and
hardware checks as consumers.  Over random networks every check runs the
reference and the current code on the same input and asserts the same pairs
in the same order, byte-equal netlist arrays, bit-equal weight planes, equal
local cells and equal verdicts and messages, on mutated mappings too.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.clustering.isc as isc_module
import repro.reliability.repair as repair_module
from repro.clustering.hierarchical import _fast_gcp, cluster_hierarchical, coarse_partition
from repro.clustering.isc import iterative_spectral_clustering
from repro.hardware.crossbar import check_exact_cover, pair_array
from repro.hardware.energy import DEFAULT_ENERGY, evaluate_energy
from repro.hardware.library import CrossbarLibrary
from repro.hardware.simulation import HybridProgram
from repro.mapping import autoncs_mapping, fullcro_mapping
from repro.mapping.fullcro import _block_sorted_edges, fullcro_instances
from repro.mapping.netlist import CellKind, MappingResult, build_netlist, fanin_fanout_breakdown
from repro.networks import ConnectionMatrix, block_diagonal_network, random_sparse_network
from repro.reliability.defects import DefectRates, lost_connections, sample_defect_map
from repro.reliability.repair import repair_mapping
from repro.utils.rng import ensure_rng, spawn_rng
from repro.verify import check_coverage
from repro.verify.checks import _check_instances

NETLIST_ARRAYS = ("kinds", "widths", "heights", "delays_ns", "sources", "targets", "weights")


# ----------------------------------------------------------------------
# Reference: the tuple-based instance and its producers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _OldInstance:
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    size: int
    connections: Tuple[Tuple[int, int], ...]


def _old_instance(rows, cols, size, connections) -> _OldInstance:
    """The tuple instance, with the tuple constructor's checks."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if len(rows) > size or len(cols) > size:
        raise ValueError("rows/cols exceed the crossbar size")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("row/column neuron lists must be unique")
    row_set, col_set = set(rows), set(cols)
    for i, j in connections:
        if i not in row_set or j not in col_set:
            raise ValueError(f"connection ({i}, {j}) outside the crossbar's rows/cols")
    if len(set(connections)) != len(connections):
        raise ValueError("duplicate connections in a crossbar instance")
    return _OldInstance(rows, cols, size, connections)


def _connection_list(network) -> List[Tuple[int, int]]:
    rows, cols = network.connection_arrays()
    return list(zip(rows.tolist(), cols.tolist()))


def _as_old(instance) -> _OldInstance:
    """A current instance in the tuple representation, checked to be int64."""
    for name in ("rows", "cols", "connections"):
        array = getattr(instance, name)
        assert array.dtype == np.int64 and not array.flags.writeable, name
    return _OldInstance(
        rows=tuple(instance.rows.tolist()),
        cols=tuple(instance.cols.tolist()),
        size=instance.size,
        connections=tuple(map(tuple, instance.connections.tolist())),
    )


def _assert_same_pairs(pairs, old_pairs) -> None:
    assert pairs.dtype == np.int64 and pairs.shape == (len(old_pairs), 2)
    assert list(map(tuple, pairs.tolist())) == list(old_pairs)


def _old_crossbars(remaining, chosen, sizes):
    rows, cols, within = remaining.within_clusters(chosen)
    groups = chosen[rows[within]]
    order = np.argsort(groups, kind="stable")
    rows, cols = rows[within][order].tolist(), cols[within][order].tolist()
    pair_bounds = [0] + np.cumsum(np.bincount(groups, minlength=len(sizes))).tolist()
    neurons = np.argsort(chosen, kind="stable").tolist()
    member_bounds = np.cumsum(np.bincount(chosen + 1, minlength=len(sizes) + 1)).tolist()
    crossbars = []
    for index, size in enumerate(sizes):
        members = tuple(neurons[member_bounds[index] : member_bounds[index + 1]])
        start, stop = pair_bounds[index], pair_bounds[index + 1]
        crossbars.append(
            _old_instance(
                rows=members,
                cols=members,
                size=size,
                connections=tuple(zip(rows[start:stop], cols[start:stop])),
            )
        )
    return crossbars


def _old_stitch(network, tier_size, rng, **isc_options):
    """The tier stitch of ``cluster_hierarchical`` (tiered path only)."""
    rng = ensure_rng(rng)
    partition_rng, tier_parent_rng = spawn_rng(rng, 2)
    partition = coarse_partition(network, tier_size=tier_size, rng=partition_rng)
    crossbars, outlier_parts = [], []
    for tier, tier_rng in enumerate(spawn_rng(tier_parent_rng, partition.k)):
        members = np.flatnonzero(partition.labels == tier)
        sub_network = ConnectionMatrix.from_dense(network.submatrix(members))
        if sub_network.num_connections == 0:
            continue
        tier_result = iterative_spectral_clustering(
            sub_network, rng=tier_rng, clusterer=_fast_gcp, **isc_options
        )
        for crossbar in tier_result.crossbars:
            rows = tuple(members[list(crossbar.rows)].tolist())
            pairs = members[np.asarray(crossbar.connections, dtype=np.int64).reshape(-1, 2)]
            crossbars.append(
                _old_instance(
                    rows=rows,
                    cols=rows,
                    size=crossbar.size,
                    connections=tuple(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())),
                )
            )
        if len(tier_result.outliers):
            local = np.asarray(tier_result.outliers, dtype=np.int64)
            outlier_parts.append((members[local[:, 0]], members[local[:, 1]]))
    cut = network.remove_clusters(partition.labels)
    outlier_parts.append(cut.connection_arrays())
    out_rows = np.concatenate([part[0] for part in outlier_parts])
    out_cols = np.concatenate([part[1] for part in outlier_parts])
    order = np.lexsort((out_cols, out_rows))
    return crossbars, list(zip(out_rows[order].tolist(), out_cols[order].tolist()))


def _old_fullcro_instances(network, max_size):
    rows, cols, counts = _block_sorted_edges(network, max_size)
    instances = []
    start = 0
    for count in counts:
        stop = start + int(count)
        block_rows = rows[start:stop]
        block_cols = cols[start:stop]
        instances.append(
            _old_instance(
                rows=tuple(np.unique(block_rows).tolist()),
                cols=tuple(np.unique(block_cols).tolist()),
                size=max_size,
                connections=tuple(zip(block_rows.tolist(), block_cols.tolist())),
            )
        )
        start = stop
    return instances


def _old_local_cells(instance):
    row_index = {int(neuron): local for local, neuron in enumerate(instance.rows)}
    col_index = {int(neuron): local for local, neuron in enumerate(instance.cols)}
    rows_local = np.array([row_index[i] for i, _ in instance.connections], dtype=int)
    cols_local = np.array([col_index[j] for _, j in instance.connections], dtype=int)
    return rows_local, cols_local


def _old_lost_connections(instance, defects):
    if defects.size < max(len(instance.rows), len(instance.cols)):
        raise ValueError("cannot host")
    if not instance.connections:
        return []
    rows_local, cols_local = _old_local_cells(instance)
    hit = defects.dead_mask()[rows_local, cols_local]
    return [pair for pair, lost in zip(instance.connections, hit) if lost]


def _old_count_lost_connections(instance, defects):
    if defects.size < max(len(instance.rows), len(instance.cols)):
        return len(instance.connections) + 1
    if not instance.connections:
        return 0
    rows_local, cols_local = _old_local_cells(instance)
    return int(defects.dead_mask()[rows_local, cols_local].sum())


def _old_repair(instances, synapses, defect_map, max_passes=4):
    """The binding search and demotion loop of ``repair_mapping``."""
    lost_before = sum(
        _old_count_lost_connections(instance, defect_map.instances[k])
        for k, instance in enumerate(instances)
    )
    with mock.patch.object(repair_module, "count_lost_connections", _old_count_lost_connections):
        binding = repair_module._optimize_binding(instances, defect_map, max_passes=max_passes)
    new_instances, surviving, demoted = [], [], []
    lost_after = clusters_demoted = 0
    for k, instance in enumerate(instances):
        physical = defect_map.instances[binding[k]]
        lost = _old_lost_connections(instance, physical)
        lost_after += len(lost)
        lost_set = set(lost)
        remaining = [pair for pair in instance.connections if pair not in lost_set]
        demoted.extend(lost)
        if not remaining:
            clusters_demoted += 1
            continue
        new_instances.append(
            _old_instance(
                rows=instance.rows,
                cols=instance.cols,
                size=physical.size,
                connections=tuple(remaining),
            )
        )
        surviving.append(binding[k])
    report = (lost_before, lost_after, len(demoted), clusters_demoted, tuple(binding))
    return new_instances, list(synapses) + demoted, tuple(surviving), report


# ----------------------------------------------------------------------
# Reference: the tuple-based consumers
# ----------------------------------------------------------------------
def _old_build_netlist(n_neurons, instances, synapse_connections, library):
    pairs = np.array(synapse_connections, dtype=np.intp).reshape(-1, 2)
    n, k, m = n_neurons, len(instances), pairs.shape[0]
    reference_delay = library.technology.crossbar_delay_ns(library.max_size)
    specs = [library.spec(instance.size) for instance in instances]
    crossbar_delays = np.array([spec.delay_ns for spec in specs], dtype=np.float64)
    synapse = library.synapse
    sides = np.concatenate(
        [
            np.full(n, library.neuron.side_um),
            np.array([spec.side_um for spec in specs], dtype=np.float64),
            np.full(m, synapse.side_um),
        ]
    )
    row_counts = np.array([len(x.rows) for x in instances], dtype=np.intp)
    col_counts = np.array([len(x.cols) for x in instances], dtype=np.intp)
    port_counts = row_counts + col_counts
    port_neurons = np.fromiter(
        itertools.chain.from_iterable(itertools.chain(x.rows, x.cols) for x in instances),
        dtype=np.intp,
        count=int(port_counts.sum()),
    )
    is_row = np.repeat(np.tile([True, False], k), np.stack([row_counts, col_counts], 1).ravel())
    port_crossbars = np.repeat(np.arange(n, n + k), port_counts)
    port_weights = np.repeat(np.maximum(crossbar_delays / reference_delay, 0.05), port_counts)
    synapse_cells = np.arange(n + k, n + k + m)
    synapse_sources = np.stack([pairs[:, 0], synapse_cells], 1).ravel()
    synapse_targets = np.stack([synapse_cells, pairs[:, 1]], 1).ravel()
    synapse_weight = max(synapse.delay_ns / reference_delay, 0.05)
    return {
        "kinds": np.repeat(np.array(list(CellKind), dtype=np.int8), [n, k, m]),
        "widths": sides,
        "heights": sides,
        "delays_ns": np.concatenate([np.zeros(n), crossbar_delays, np.full(m, synapse.delay_ns)]),
        "sources": np.concatenate([np.where(is_row, port_neurons, port_crossbars), synapse_sources]),
        "targets": np.concatenate([np.where(is_row, port_crossbars, port_neurons), synapse_targets]),
        "weights": np.concatenate([port_weights, np.full(2 * m, synapse_weight)]),
    }


def _old_fanin_fanout(n_neurons, instances, synapse_connections):
    crossbar = np.zeros(n_neurons, dtype=int)
    synapse = np.zeros(n_neurons, dtype=int)
    for instance in instances:
        for neuron in instance.rows:
            crossbar[neuron] += 1
        for neuron in instance.cols:
            crossbar[neuron] += 1
    for i, j in synapse_connections:
        synapse[i] += 1
        synapse[j] += 1
    return crossbar, synapse


def _old_compile(instances, synapse_connections, network, signed_weights=None):
    n = network.size
    if signed_weights is None:
        signed_weights = network.matrix.astype(float)
    signed_weights = np.asarray(signed_weights, dtype=float)
    scale = float(np.max(np.abs(signed_weights)))
    scale = scale if scale > 0 else 1.0
    normalized = signed_weights / scale
    compiled = []
    for instance in instances:
        s = instance.size
        rows = np.asarray(instance.rows, dtype=int)
        cols = np.asarray(instance.cols, dtype=int)
        pos = np.zeros((s, s))
        neg = np.zeros((s, s))
        row_of = {int(g): local for local, g in enumerate(rows)}
        col_of = {int(g): local for local, g in enumerate(cols)}
        for gi, gj in instance.connections:
            value = normalized[gi, gj]
            if value >= 0:
                pos[row_of[gi], col_of[gj]] = value
            else:
                neg[row_of[gi], col_of[gj]] = -value
        compiled.append((rows, cols, pos, neg))
    synapse_rows = np.array([i for i, _ in synapse_connections], dtype=int)
    synapse_cols = np.array([j for _, j in synapse_connections], dtype=int)
    synapse_values = (
        normalized[synapse_rows, synapse_cols] if synapse_connections else np.array([])
    )
    return scale, compiled, synapse_rows, synapse_cols, synapse_values


def _old_check_exact_cover(instances, synapses, network):
    pairs = itertools.chain(
        itertools.chain.from_iterable(instance.connections for instance in instances),
        synapses,
    )
    implemented = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64)
    implemented = implemented.reshape(-1, 2)
    n = network.size
    rows, cols = network.connection_arrays()
    edges = rows * n + cols
    in_range = np.all((implemented >= 0) & (implemented < n), axis=1)
    keys = implemented[:, 0] * n + implemented[:, 1]
    phantom = np.flatnonzero(~in_range | ~np.isin(keys, edges))
    if phantom.size:
        pair = tuple(implemented[phantom[0]].tolist())
        raise AssertionError(f"connection {pair} is not in the network")
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        pair = tuple(implemented[repeats.min()].tolist())
        raise AssertionError(f"connection {pair} implemented twice")
    if keys.size < edges.size:
        first = int(np.flatnonzero(~np.isin(edges, keys))[0])
        pair = (int(rows[first]), int(cols[first]))
        raise AssertionError(
            f"connection {pair} is not implemented "
            f"({keys.size} of {edges.size} connections are)"
        )


def _capped(items, summary, cap=25):
    items = list(items)
    hidden = len(items) - cap
    extra = [f"{summary}: {hidden} further case(s) beyond the first {cap}"] if hidden > 0 else []
    return items[:cap] + extra


def _old_coverage(instances, synapses, network):
    realized: Counter = Counter()
    for instance in instances:
        for pair in instance.connections:
            realized[tuple(int(v) for v in pair)] += 1
    crossbar_realized = sum(realized.values())
    for pair in synapses:
        realized[tuple(int(v) for v in pair)] += 1
    expected = set(_connection_list(network))
    duplicated = sorted(pair for pair, count in realized.items() if count > 1)
    missing = sorted(expected - set(realized))
    extra = sorted(set(realized) - expected)
    messages = _capped(
        (f"connection {pair} realized {realized[pair]} times" for pair in duplicated),
        "double-realized connections",
    )
    messages += _capped(
        (f"connection {pair} of the network is not realized anywhere" for pair in missing),
        "unrealized connections",
    )
    messages += _capped(
        (
            f"realized connection {pair} does not exist in network {network.name!r}"
            for pair in extra
        ),
        "phantom connections",
    )
    stats = {
        "expected": len(expected),
        "realized_crossbar": crossbar_realized,
        "realized_synapse": len(synapses),
    }
    return messages, stats


def _old_instance_messages(instances, synapses, n, library):
    messages = []
    for index, instance in enumerate(instances):
        if instance.size not in library:
            messages.append(
                f"crossbar {index} has size {instance.size}, not in the library {library.sizes}"
            )
        if len(instance.rows) > instance.size or len(instance.cols) > instance.size:
            messages.append(
                f"crossbar {index} hosts {len(instance.rows)} rows / "
                f"{len(instance.cols)} cols on a size-{instance.size} array"
            )
        if len(set(instance.rows)) != len(instance.rows) or len(set(instance.cols)) != len(
            instance.cols
        ):
            messages.append(
                f"crossbar {index} assigns a neuron to more than one row or column port"
            )
        out_of_range = [
            neuron for neuron in (*instance.rows, *instance.cols) if not 0 <= int(neuron) < n
        ]
        if out_of_range:
            messages.append(
                f"crossbar {index} references neurons {sorted(set(out_of_range))} "
                f"outside [0, {n})"
            )
        row_set, col_set = set(instance.rows), set(instance.cols)
        bad_cells = [
            pair for pair in instance.connections if pair[0] not in row_set or pair[1] not in col_set
        ]
        messages += _capped(
            (
                f"crossbar {index}: connection {pair} uses a neuron with no "
                "row/column port on this array"
                for pair in bad_cells
            ),
            f"crossbar {index} portless connections",
        )
        if len(instance.connections) > instance.size * instance.size:
            messages.append(
                f"crossbar {index} claims {len(instance.connections)} cells on a "
                f"size-{instance.size} array (capacity {instance.size * instance.size})"
            )
    for index, (i, j) in enumerate(synapses):
        if not (0 <= int(i) < n and 0 <= int(j) < n):
            messages.append(f"discrete synapse {index} connects ({i}, {j}) outside [0, {n})")
    return messages


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def networks(draw, min_n=6, max_n=40):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return random_sparse_network(n, draw(st.floats(0.04, 0.3)), rng=seed)
    parts = np.array_split(np.arange(n), draw(st.integers(1, min(5, n))))
    return block_diagonal_network(
        [part.size for part in parts],
        within_density=draw(st.floats(0.3, 0.9)),
        between_density=0.03,
        rng=seed,
    )


ISC_OPTIONS = st.fixed_dictionaries(
    {
        "sizes": st.sampled_from([(16, 32, 64), (4, 8, 12, 16), (6, 10)]),
        "utilization_threshold": st.sampled_from([0.0, 0.02, 0.1]),
        "max_iterations": st.integers(1, 5),
    }
)


def _flat(network, options, seed):
    """Flat ISC, checking each iteration's crossbars against the tuple producer."""
    extract = isc_module._crossbars

    def both(remaining, chosen, sizes):
        crossbars = extract(remaining, chosen, sizes)
        assert [_as_old(x) for x in crossbars] == _old_crossbars(remaining, chosen, sizes)
        return crossbars

    with mock.patch.object(isc_module, "_crossbars", both):
        isc = iterative_spectral_clustering(network, rng=seed, **options)
    on_crossbars = {pair for x in isc.crossbars for pair in _as_old(x).connections}
    old_outliers = [pair for pair in _connection_list(network) if pair not in on_crossbars]
    _assert_same_pairs(isc.outliers, old_outliers)
    return autoncs_mapping(isc)


def _tiered(network, options, seed, tier_size):
    isc = cluster_hierarchical(network, tier_size=tier_size, rng=seed, **options)
    assume(isc.metadata.get("method") == "hierarchical")
    crossbars, outliers = _old_stitch(network, tier_size, seed, **options)
    assert [_as_old(x) for x in isc.crossbars] == crossbars
    _assert_same_pairs(isc.outliers, outliers)
    return autoncs_mapping(isc)


def _fullcro(network, max_size):
    library = CrossbarLibrary(sizes=(max_size,))
    instances = fullcro_instances(network, max_size)
    assert [_as_old(x) for x in instances] == _old_fullcro_instances(network, max_size)
    return fullcro_mapping(network, library=library)


@st.composite
def mappings(draw):
    """A mapping from flat ISC, the tier stitch or FullCro, checked against
    the tuple producers on the way."""
    network = draw(networks())
    assume(network.num_connections)
    kind = draw(st.sampled_from(["flat", "tiered", "fullcro"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "flat":
        return _flat(network, draw(ISC_OPTIONS), seed)
    if kind == "tiered":
        return _tiered(network, draw(ISC_OPTIONS), seed, draw(st.integers(4, 16)))
    return _fullcro(network, draw(st.sampled_from([4, 8, 64])))


def _old_view(mapping):
    """The mapping's instances and synapses in the tuple representation."""
    return [_as_old(x) for x in mapping.instances], list(
        map(tuple, mapping.synapse_connections.tolist())
    )


# ----------------------------------------------------------------------
# The comparisons
# ----------------------------------------------------------------------
def _assert_consumers_agree(mapping):
    instances, synapses = _old_view(mapping)
    network = mapping.network
    old_netlist = _old_build_netlist(network.size, instances, synapses, mapping.library)
    for name in NETLIST_ARRAYS:
        mine, theirs = getattr(mapping.netlist, name), old_netlist[name]
        assert mine.tobytes() == theirs.tobytes(), name
    breakdown = fanin_fanout_breakdown(network.size, mapping.instances, mapping.synapse_connections)
    crossbar, synapse = _old_fanin_fanout(network.size, instances, synapses)
    np.testing.assert_array_equal(breakdown.crossbar, crossbar)
    np.testing.assert_array_equal(breakdown.synapse, synapse)
    for new, old in zip(mapping.instances, instances):
        for mine, theirs in zip(new.local_cells(), _old_local_cells(old)):
            np.testing.assert_array_equal(mine, theirs)
    row_pulses = sum(len(set(i for i, _ in x.connections)) for x in instances)
    pulses = row_pulses + len(synapses)
    assert evaluate_energy(mapping).programming_time_us == (
        pulses * DEFAULT_ENERGY.write_pulse_ns * 1e-3
    )


def _assert_programs_agree(mapping, signed_weights=None):
    program = HybridProgram.compile(mapping, signed_weights)
    instances, synapses = _old_view(mapping)
    scale, blocks, synapse_rows, synapse_cols, synapse_values = _old_compile(
        instances, synapses, mapping.network, signed_weights
    )
    assert repr(program.scale) == repr(scale)
    assert len(program.blocks) == len(blocks)
    for mine, theirs in zip(program.blocks, blocks):
        np.testing.assert_array_equal(mine[0], theirs[0])
        np.testing.assert_array_equal(mine[1], theirs[1])
        for plane, old_plane in zip(mine[2:], theirs[2:]):
            assert plane.shape == old_plane.shape and plane.tobytes() == old_plane.tobytes()
    np.testing.assert_array_equal(program.synapse_rows, synapse_rows)
    np.testing.assert_array_equal(program.synapse_cols, synapse_cols)
    assert program.synapse_values.tobytes() == np.asarray(synapse_values, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(mappings())
def test_producers_and_consumers_match_the_tuple_code(mapping):
    _assert_consumers_agree(mapping)


@settings(max_examples=30, deadline=None)
@given(mappings(), st.integers(0, 2**16))
def test_weight_planes_match_bit_for_bit(mapping, seed):
    _assert_programs_agree(mapping)  # the binary adjacency
    n = mapping.network.size
    signed = np.random.default_rng(seed).normal(size=(n, n)).round(2)  # some 0.0 and -0.0
    _assert_programs_agree(mapping, signed)


@settings(max_examples=25, deadline=None)
@given(mappings(), st.integers(0, 2**16), st.floats(0.0, 0.5), st.integers(0, 2))
def test_repair_matches_the_tuple_code(mapping, seed, rate, spares):
    assume(mapping.instances)
    rates = DefectRates(cell_stuck_off=rate, row_line=rate / 4)
    defect_map = sample_defect_map(mapping, rates, rng=seed, spare_instances=spares)
    instances, synapses = _old_view(mapping)
    for k, (new, old) in enumerate(zip(mapping.instances, instances)):
        defects = defect_map.instances[k]
        _assert_same_pairs(lost_connections(new, defects), _old_lost_connections(old, defects))
    repaired, report = repair_mapping(mapping, defect_map)
    old_instances, old_synapses, surviving, old_report = _old_repair(
        instances, synapses, defect_map
    )
    assert [_as_old(x) for x in repaired.instances] == old_instances
    _assert_same_pairs(repaired.synapse_connections, old_synapses)
    assert repaired.metadata["physical_binding"] == surviving
    assert (
        report.connections_lost_before,
        report.connections_lost_after_rebinding,
        report.synapses_added,
        report.clusters_demoted,
        report.binding,
    ) == old_report
    _assert_consumers_agree(repaired)


# ----------------------------------------------------------------------
# Mutated mappings: verdicts and messages
# ----------------------------------------------------------------------
MUTATIONS = (
    "none",
    "phantom_synapse",
    "out_of_range_synapse",
    "duplicate_synapse",
    "crossbar_pair_as_synapse",
    "missing_synapse",
    "missing_crossbar_pair",
    "phantom_crossbar_pair",
    "portless_crossbar_pair",
    "out_of_range_port",
)


def _replace_pairs(instance, pairs, validate=True):
    """``instance`` with other connections; ``validate=False`` bypasses the
    constructor's checks, as a corrupted artifact would."""
    if validate:
        return dataclasses.replace(instance, connections=pair_array(pairs))
    tampered = dataclasses.replace(instance)
    object.__setattr__(tampered, "connections", pair_array(pairs))
    return tampered


@st.composite
def mutants(draw):
    mapping = draw(mappings())
    mutation = draw(st.sampled_from(MUTATIONS))
    network, n = mapping.network, mapping.network.size
    instances = list(mapping.instances)
    synapses = list(map(tuple, mapping.synapse_connections.tolist()))
    edges = set(_connection_list(network))
    used = [k for k, x in enumerate(instances) if x.connections.size]
    if mutation in ("phantom_synapse", "phantom_crossbar_pair"):
        absent = [(i, j) for i in range(n) for j in range(n) if (i, j) not in edges]
        assume(absent)
        pair = draw(st.sampled_from(absent))
        if mutation == "phantom_synapse":
            synapses.insert(draw(st.integers(0, len(synapses))), pair)
        else:
            candidates = [
                k for k, x in enumerate(instances)
                if pair[0] in x.rows.tolist() and pair[1] in x.cols.tolist()
            ]
            assume(candidates)
            k = draw(st.sampled_from(candidates))
            pairs = list(map(tuple, instances[k].connections.tolist())) + [pair]
            instances[k] = _replace_pairs(instances[k], pairs)
    elif mutation == "out_of_range_synapse":
        pair = draw(st.sampled_from([(n, 0), (0, n + 2), (-1, 0), (1, -3)]))
        synapses.insert(draw(st.integers(0, len(synapses))), pair)
    elif mutation == "duplicate_synapse":
        assume(synapses)
        synapses.insert(draw(st.integers(0, len(synapses))), draw(st.sampled_from(synapses)))
    elif mutation == "crossbar_pair_as_synapse":
        assume(used)
        pairs = instances[draw(st.sampled_from(used))].connections.tolist()
        synapses.insert(draw(st.integers(0, len(synapses))), tuple(draw(st.sampled_from(pairs))))
    elif mutation == "missing_synapse":
        assume(synapses)
        del synapses[draw(st.integers(0, len(synapses) - 1))]
    elif mutation == "missing_crossbar_pair":
        assume(used)
        k = draw(st.sampled_from(used))
        pairs = list(map(tuple, instances[k].connections.tolist()))
        del pairs[draw(st.integers(0, len(pairs) - 1))]
        instances[k] = _replace_pairs(instances[k], pairs)
    elif mutation == "portless_crossbar_pair":
        assume(used)
        k = draw(st.sampled_from(used))
        pairs = list(map(tuple, instances[k].connections.tolist()))
        pairs.append((n + 5, pairs[0][1]))
        instances[k] = _replace_pairs(instances[k], pairs, validate=False)
    elif mutation == "out_of_range_port":
        assume(instances)
        k = draw(st.integers(0, len(instances) - 1))
        x = instances[k]
        assume(x.rows.size < x.size)
        instances[k] = dataclasses.replace(x, rows=x.rows.tolist() + [n + draw(st.integers(0, 3))])
    mutant = dataclasses.replace(
        mapping, instances=instances, synapse_connections=pair_array(synapses)
    )
    return mutant, mutation


def _cover_verdict(check):
    try:
        check()
    except AssertionError as error:
        return str(error)
    return None


@settings(max_examples=60, deadline=None)
@given(mutants())
def test_checks_give_the_tuple_verdicts_and_messages(case):
    mutant, mutation = case
    instances, synapses = _old_view(mutant)
    network = mutant.network
    verdict = _cover_verdict(
        lambda: check_exact_cover(mutant.instances, mutant.synapse_connections, network)
    )
    assert verdict == _cover_verdict(lambda: _old_check_exact_cover(instances, synapses, network))
    assert (verdict is None) == (mutation in ("none", "out_of_range_port"))

    coverage = check_coverage(mutant)
    messages, stats = _old_coverage(instances, synapses, network)
    assert [v.message for v in coverage.violations] == messages
    assert coverage.stats == stats
    assert coverage.passed == (mutation in ("none", "out_of_range_port"))

    violations = []
    _check_instances(mutant, violations)
    assert [v.message for v in violations] == _old_instance_messages(
        instances, synapses, network.size, mutant.library
    )
    assert bool(violations) == (
        mutation in ("out_of_range_synapse", "portless_crossbar_pair", "out_of_range_port")
    )


def test_functional_check_reads_sparse_weights_only():
    """Every connection on a discrete synapse: no ``n × n`` array is built."""
    import tracemalloc

    from repro.verify import verify_mapping

    network = random_sparse_network(6000, 0.0005, rng=3)
    pairs = np.stack(network.connection_arrays(), axis=1)
    library = CrossbarLibrary()
    mapping = MappingResult(
        name="synapses",
        network=network,
        instances=[],
        synapse_connections=pairs,
        netlist=build_netlist(network.size, [], pairs, library),
        library=library,
    )
    assert mapping.num_synapses == 36_172
    tracemalloc.start()
    try:
        report = verify_mapping(mapping, checks=("functional",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 64e6  # a dense float64 6000 × 6000 matrix alone is 288 MB
