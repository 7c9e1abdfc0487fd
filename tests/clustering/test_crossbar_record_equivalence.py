"""ISC and the tiered pass emit the mapping's crossbars as the old record path built them.

ISC used to record each realized cluster as a ``CrossbarAssignment``
(members, size, connections and an iteration nothing read), the tiered
pass re-indexed those through ``_remap_assignment`` and rebuilt every
iteration record, ``autoncs_mapping`` converted each assignment into a
``CrossbarInstance``, and ``IscResult.validate`` and
``MappingResult.validate`` each asserted the exact cover over Python sets.
The references below are that code: the ISC loop with its record
construction, the tiered stitch, the mapping's conversion, both set-based
bodies and both copies of the crossbar statistics.  They read clusters as
member lists, through the test-local ``parent_partition`` copies.  Every check runs the
reference and the current code from equal seeds and asserts equal
crossbar sizes and ``int64`` rows, cols and connections arrays, outliers,
records (by repr), metadata, statistics, metrics and trace spans, and
byte-equal netlist arrays; and that the array-based cover check rejects
exactly the tampered covers the set-based bodies rejected.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clustering.gcp import greedy_cluster_size_prediction
from repro.clustering.hierarchical import _fast_gcp, cluster_hierarchical, coarse_partition
from repro.clustering.isc import (
    DEFAULT_SELECTION_QUANTILE,
    IscIterationRecord,
    iterative_spectral_clustering,
)
from repro.clustering.preference import (
    crossbar_preference,
    crossbar_utilization,
    minimum_satisfiable_size,
)
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.hardware.crossbar import CrossbarInstance, check_exact_cover, pair_array
from repro.hardware.library import DEFAULT_CROSSBAR_SIZES, CrossbarLibrary
from repro.mapping import autoncs_mapping, fullcro_utilization
from repro.mapping.netlist import build_netlist
from repro.networks import (
    ConnectionMatrix,
    block_diagonal_network,
    random_sparse_network,
    scale_free_network,
)
from repro.observability import get_recorder, recording
from repro.utils.rng import ensure_rng, spawn_rng
from tests.clustering import parent_partition as parent
from tests.crossbar_asserts import assert_same_crossbars, assert_same_pairs

SIZE_LIBRARIES = [DEFAULT_CROSSBAR_SIZES, (4, 8, 12, 16), (6, 10), (8,)]


def _edge_list(network):
    """The network's ``(i, j)`` edges as Python-int tuples, row-major."""
    rows, cols = network.connection_arrays()
    return list(zip(rows.tolist(), cols.tolist()))


def _tuples(pairs):
    """A pair array (or sequence) as a list of Python-int tuples."""
    return [tuple(pair) for pair in np.asarray(pairs).reshape(-1, 2).tolist()]


# ----------------------------------------------------------------------
# Reference: the old record, its ISC loop, stitch, conversion and checks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _OldCrossbarAssignment:
    members: Tuple[int, ...]
    size: int
    connections: Tuple[Tuple[int, int], ...]
    iteration: int

    def __post_init__(self) -> None:
        if len(self.members) > self.size:
            raise ValueError(
                f"cluster of {len(self.members)} neurons cannot fit a "
                f"{self.size}x{self.size} crossbar"
            )
        member_set = set(self.members)
        for i, j in self.connections:
            if i not in member_set or j not in member_set:
                raise ValueError(f"connection ({i}, {j}) has an endpoint outside the cluster")

    @property
    def utilized_connections(self) -> int:
        return len(self.connections)

    @property
    def utilization(self) -> float:
        return crossbar_utilization(self.utilized_connections, self.size)

    @property
    def preference(self) -> float:
        return crossbar_preference(self.utilized_connections, self.size)


@dataclass
class _OldIscResult:
    network: ConnectionMatrix
    crossbars: list
    outliers: List[Tuple[int, int]]
    records: List[IscIterationRecord]
    utilization_threshold: float
    sizes: Tuple[int, ...] = DEFAULT_CROSSBAR_SIZES
    metadata: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def clustered_connections(self) -> int:
        return sum(x.utilized_connections for x in self.crossbars)

    @property
    def outlier_ratio(self) -> float:
        total = self.network.num_connections
        if total == 0:
            return 0.0
        return len(self.outliers) / total

    @property
    def average_utilization(self) -> float:
        if not self.crossbars:
            return 0.0
        return float(np.mean([x.utilization for x in self.crossbars]))

    def crossbar_size_histogram(self) -> dict:
        histogram: dict = {}
        for assignment in self.crossbars:
            histogram[assignment.size] = histogram.get(assignment.size, 0) + 1
        return dict(sorted(histogram.items()))

    def validate(self) -> None:
        implemented: set = set()
        for assignment in self.crossbars:
            for pair in _tuples(assignment.connections):
                assert pair not in implemented, f"connection {pair} implemented twice"
                implemented.add(pair)
        for pair in _tuples(self.outliers):
            assert pair not in implemented, f"outlier {pair} also on a crossbar"
            implemented.add(pair)
        expected = set(_edge_list(self.network))
        assert implemented == expected, (
            f"implementation covers {len(implemented)} connections, "
            f"network has {len(expected)}"
        )


@dataclass
class _OldMapping:
    network: ConnectionMatrix
    instances: list
    synapse_connections: List[Tuple[int, int]]

    @property
    def average_utilization(self) -> float:
        if not self.instances:
            return 0.0
        return float(np.mean([x.utilization for x in self.instances]))

    @property
    def clustered_connection_ratio(self) -> float:
        total = self.network.num_connections
        if total == 0:
            return 0.0
        clustered = sum(x.utilized_connections for x in self.instances)
        return clustered / total

    def crossbar_size_histogram(self) -> dict:
        histogram: dict = {}
        for instance in self.instances:
            histogram[instance.size] = histogram.get(instance.size, 0) + 1
        return dict(sorted(histogram.items()))

    def validate(self) -> None:
        implemented: set = set()
        for instance in self.instances:
            for pair in _tuples(instance.connections):
                assert pair not in implemented, f"connection {pair} implemented twice"
                implemented.add(pair)
        for pair in _tuples(self.synapse_connections):
            assert pair not in implemented, f"synapse {pair} duplicates a crossbar connection"
            implemented.add(pair)
        expected = set(_edge_list(self.network))
        assert implemented == expected, (
            f"mapping implements {len(implemented)} connections, "
            f"network has {len(expected)}"
        )


def _old_iterative_spectral_clustering(
    network: ConnectionMatrix,
    sizes: Sequence[int] = DEFAULT_CROSSBAR_SIZES,
    utilization_threshold: float = 0.05,
    selection_quantile: float = DEFAULT_SELECTION_QUANTILE,
    max_iterations: int = 50,
    rng=None,
    preference: Callable[[int, int], float] = crossbar_preference,
    clusterer: Callable[..., object] = greedy_cluster_size_prediction,
) -> _OldIscResult:
    size_list = tuple(sorted(int(s) for s in sizes))
    rng = ensure_rng(rng)
    max_s = size_list[-1]
    total_connections = network.num_connections
    remaining = network.copy(name=f"{network.name}-remaining")
    crossbars: List[_OldCrossbarAssignment] = []
    records: List[IscIterationRecord] = []
    recorder = get_recorder()
    kmeans_calls = 0
    iteration = 0
    while iteration < max_iterations and remaining.num_connections > 0:
        iteration += 1
        with recorder.span("isc.iteration", iteration=iteration, neurons=remaining.size) as span:
            connected = (remaining.out_degrees() + remaining.in_degrees()) > 0
            span.annotate(live_neurons=int(np.count_nonzero(connected)))
            clustering = parent.as_parent(clusterer(remaining, max_s, rng=rng))
            calls = clustering.metadata.get("kmeans_calls", 0)
            span.annotate(kmeans_calls=calls)
            kmeans_calls += calls
            within_counts = parent.connections_within_many(
                remaining, [cluster.members for cluster in clustering.clusters]
            )
            scored = []
            for cluster, m in zip(clustering.clusters, within_counts.tolist()):
                if m == 0:
                    continue
                s = minimum_satisfiable_size(cluster.size, size_list)
                if s is None:
                    continue
                scored.append((cluster, m, s, float(preference(m, s))))
            if not scored:
                break
            cps = np.array([item[3] for item in scored])
            q = float(np.quantile(cps, selection_quantile))
            selected = [item for item in scored if item[3] >= q]
            boundary = min(selected, key=lambda item: item[3])
            if minimum_satisfiable_size(boundary[0].size, size_list) is None:
                break
            connection_groups = parent.clusters_connections(
                [cluster.members for cluster, _, _, _ in selected], remaining
            )
            placed: List[_OldCrossbarAssignment] = []
            for (cluster, m, s, cp), connections in zip(selected, connection_groups):
                placed.append(
                    _OldCrossbarAssignment(
                        members=cluster.members,
                        size=s,
                        connections=connections,
                        iteration=iteration,
                    )
                )
            remaining = parent.remove_clusters(
                remaining, [cluster.members for cluster, _, _, _ in selected]
            )
            crossbars.extend(placed)
            avg_u = float(np.mean([x.utilization for x in placed]))
            avg_cp = float(np.mean([x.preference for x in placed]))
            records.append(
                IscIterationRecord(
                    iteration=iteration,
                    clusters_formed=sum(
                        bool(connected[list(cluster.members)].any())
                        for cluster in clustering.clusters
                    ),
                    crossbars_placed=len(placed),
                    connections_clustered=sum(x.utilized_connections for x in placed),
                    average_utilization=avg_u,
                    average_preference=avg_cp,
                    outlier_ratio_after=(
                        remaining.num_connections / total_connections
                        if total_connections
                        else 0.0
                    ),
                    quartile_preference=q,
                )
            )
            if avg_u < utilization_threshold:
                break
    outliers = _edge_list(remaining)
    result = _OldIscResult(
        network=network,
        crossbars=crossbars,
        outliers=outliers,
        records=records,
        utilization_threshold=utilization_threshold,
        sizes=size_list,
        metadata={"max_iterations": max_iterations, "selection_quantile": selection_quantile},
    )
    result.validate()
    recorder.count("isc.runs")
    recorder.count("isc.iterations", result.iterations)
    recorder.count("isc.kmeans_calls", kmeans_calls)
    recorder.count("isc.crossbars_placed", len(crossbars))
    recorder.count("isc.clustered_connections", result.clustered_connections)
    recorder.count("isc.outlier_connections", len(outliers))
    if recorder.enabled:
        recorder.gauge("isc.outlier_ratio", result.outlier_ratio)
        recorder.gauge("isc.average_utilization", result.average_utilization)
        recorder.observe_many("isc.crossbar_size", [float(x.size) for x in crossbars])
    return result


def _old_remap_assignment(assignment, members, iteration_offset):
    return _OldCrossbarAssignment(
        members=tuple(int(members[local]) for local in assignment.members),
        size=assignment.size,
        connections=tuple(
            (int(members[i]), int(members[j])) for i, j in assignment.connections
        ),
        iteration=assignment.iteration + iteration_offset,
    )


def _old_cluster_hierarchical(
    network,
    sizes=DEFAULT_CROSSBAR_SIZES,
    utilization_threshold=0.05,
    selection_quantile=DEFAULT_SELECTION_QUANTILE,
    max_iterations=50,
    tier_size=1024,
    rng=None,
    preference=crossbar_preference,
    clusterer: Optional[Callable[..., object]] = None,
) -> _OldIscResult:
    rng = ensure_rng(rng)
    recorder = get_recorder()
    if network.size <= tier_size:
        return _old_iterative_spectral_clustering(
            network,
            sizes=sizes,
            utilization_threshold=utilization_threshold,
            selection_quantile=selection_quantile,
            max_iterations=max_iterations,
            rng=rng,
            preference=preference,
            clusterer=clusterer if clusterer is not None else greedy_cluster_size_prediction,
        )
    if clusterer is None:
        clusterer = _fast_gcp
    with recorder.span("hierarchical.partition", neurons=network.size):
        partition_rng, tier_parent_rng = spawn_rng(rng, 2)
        partition = parent.as_parent(
            coarse_partition(network, tier_size=tier_size, rng=partition_rng)
        )
    tiers = partition.clusters
    tier_rngs = spawn_rng(tier_parent_rng, len(tiers))
    crossbars = []
    records = []
    outlier_parts = []
    iteration_offset = 0
    tier_summaries = []
    cut_connections = network.num_connections
    for tier, tier_rng in zip(tiers, tier_rngs):
        members = np.asarray(tier.members, dtype=np.int64)
        block = network.submatrix(members)
        sub_network = ConnectionMatrix.from_dense(block, name=f"{network.name}-tier")
        if sub_network.num_connections == 0:
            tier_summaries.append({"neurons": int(members.size), "crossbars": 0})
            continue
        cut_connections -= sub_network.num_connections
        with recorder.span("hierarchical.tier", neurons=int(members.size)):
            tier_result = _old_iterative_spectral_clustering(
                sub_network,
                sizes=sizes,
                utilization_threshold=utilization_threshold,
                selection_quantile=selection_quantile,
                max_iterations=max_iterations,
                rng=tier_rng,
                preference=preference,
                clusterer=clusterer,
            )
        for assignment in tier_result.crossbars:
            crossbars.append(_old_remap_assignment(assignment, members, iteration_offset))
        for record in tier_result.records:
            records.append(
                IscIterationRecord(
                    iteration=record.iteration + iteration_offset,
                    clusters_formed=record.clusters_formed,
                    crossbars_placed=record.crossbars_placed,
                    connections_clustered=record.connections_clustered,
                    average_utilization=record.average_utilization,
                    average_preference=record.average_preference,
                    outlier_ratio_after=record.outlier_ratio_after,
                    quartile_preference=record.quartile_preference,
                )
            )
        iteration_offset += tier_result.iterations
        if tier_result.outliers:
            local = np.asarray(tier_result.outliers, dtype=np.int64)
            outlier_parts.append((members[local[:, 0]], members[local[:, 1]]))
        tier_summaries.append(
            {"neurons": int(members.size), "crossbars": len(tier_result.crossbars)}
        )
    tier_label = np.full(network.size, -1, dtype=np.int64)
    for position, tier in enumerate(tiers):
        tier_label[np.asarray(tier.members, dtype=np.int64)] = position
    rows, cols = network.connection_arrays()
    crossing = tier_label[rows] != tier_label[cols]
    outlier_parts.append((rows[crossing], cols[crossing]))
    out_rows = np.concatenate([part[0] for part in outlier_parts])
    out_cols = np.concatenate([part[1] for part in outlier_parts])
    order = np.lexsort((out_cols, out_rows))
    outliers = list(zip(out_rows[order].tolist(), out_cols[order].tolist()))
    total = network.num_connections
    result = _OldIscResult(
        network=network,
        crossbars=crossbars,
        outliers=outliers,
        records=records,
        utilization_threshold=utilization_threshold,
        sizes=tuple(sorted(int(s) for s in sizes)),
        metadata={
            "method": "hierarchical",
            "tier_size": tier_size,
            "tiers": len(tiers),
            "tier_summaries": tier_summaries,
            "cut_ratio": (cut_connections / total) if total else 0.0,
            "max_iterations": max_iterations,
            "selection_quantile": selection_quantile,
        },
    )
    result.validate()
    recorder.count("hierarchical.runs")
    recorder.count("hierarchical.tiers", len(tiers))
    if recorder.enabled:
        recorder.gauge("hierarchical.cut_ratio", result.metadata["cut_ratio"])
    return result


def _old_autoncs_mapping(isc_result: _OldIscResult):
    library = CrossbarLibrary(sizes=isc_result.sizes)
    instances = [
        CrossbarInstance(
            rows=assignment.members,
            cols=assignment.members,
            size=assignment.size,
            connections=assignment.connections,
        )
        for assignment in isc_result.crossbars
    ]
    synapses = list(isc_result.outliers)
    netlist = build_netlist(isc_result.network.size, instances, synapses, library)
    mapping = _OldMapping(isc_result.network, instances, synapses)
    mapping.validate()
    return mapping, netlist


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
NETLIST_ARRAYS = ("kinds", "widths", "heights", "delays_ns", "sources", "targets", "weights")


def _spans(recorder):
    return [(span.name, span.attributes, span.depth) for span in recorder.tracer.spans]


def _assert_same_records(new_run, old_run, network, **kwargs):
    """Cluster with the current and the reference code from equal seeds;
    assert equal ISC results and mappings."""
    with recording() as new_recorder:
        new = new_run(network, **kwargs)
    with recording() as old_recorder:
        old = old_run(network, **kwargs)
    assert_same_crossbars(
        new.crossbars,
        [
            CrossbarInstance(
                rows=a.members, cols=a.members, size=a.size, connections=a.connections
            )
            for a in old.crossbars
        ],
    )
    assert all(type(c) is CrossbarInstance and type(c.size) is int for c in new.crossbars)
    assert_same_pairs(new.outliers, pair_array(old.outliers))
    assert repr(new.records) == repr(old.records)
    assert new.metadata == old.metadata and new.sizes == old.sizes
    assert repr(new.average_utilization) == repr(old.average_utilization)
    assert list(new.crossbar_size_histogram().items()) == list(
        old.crossbar_size_histogram().items()
    )
    assert new.clustered_connections == old.clustered_connections
    assert new_recorder.snapshot().to_dict() == old_recorder.snapshot().to_dict()
    assert _spans(new_recorder) == _spans(old_recorder)

    mapping = autoncs_mapping(new)
    old_mapping, old_netlist = _old_autoncs_mapping(old)
    assert_same_crossbars(mapping.instances, old_mapping.instances)
    assert mapping.instances is not new.crossbars
    assert all(a is b for a, b in zip(mapping.instances, new.crossbars))
    assert_same_pairs(mapping.synapse_connections, pair_array(old_mapping.synapse_connections))
    for name in NETLIST_ARRAYS:
        mine, theirs = getattr(mapping.netlist, name), getattr(old_netlist, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
    assert repr(mapping.average_utilization) == repr(old_mapping.average_utilization)
    assert repr(mapping.clustered_connection_ratio) == repr(
        old_mapping.clustered_connection_ratio
    )
    assert list(mapping.crossbar_size_histogram().items()) == list(
        old_mapping.crossbar_size_histogram().items()
    )
    return new


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def small_networks(draw, min_n=8, max_n=48):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return random_sparse_network(n, draw(st.floats(0.03, 0.3)), rng=seed)
    parts = np.array_split(np.arange(n), draw(st.integers(1, min(6, n))))
    blocks = [part.size for part in parts]
    return block_diagonal_network(
        blocks, within_density=draw(st.floats(0.3, 0.9)), between_density=0.03, rng=seed
    )


isc_settings = st.fixed_dictionaries(
    {
        "sizes": st.sampled_from(SIZE_LIBRARIES),
        "utilization_threshold": st.sampled_from([0.0, 0.02, 0.05, 0.2]),
        "max_iterations": st.integers(1, 6),
        "rng": st.integers(0, 2**16),
    }
)


@settings(max_examples=25)
@given(small_networks(), isc_settings)
def test_flat_isc_records_match(network, kwargs):
    _assert_same_records(
        iterative_spectral_clustering, _old_iterative_spectral_clustering, network, **kwargs
    )


@settings(max_examples=15)
@given(small_networks(min_n=30, max_n=80), isc_settings, st.integers(8, 24))
def test_tiered_records_match(network, kwargs, tier_size):
    result = _assert_same_records(
        cluster_hierarchical, _old_cluster_hierarchical, network, tier_size=tier_size, **kwargs
    )
    assert result.metadata["tiers"] > 1


@pytest.mark.parametrize("index", [1, 2, 3])
def test_testbench_records_match(index):
    network = build_testbench(scaled_testbench(index, 120), rng=31).network
    threshold = fullcro_utilization(network, 64)
    result = _assert_same_records(
        iterative_spectral_clustering,
        _old_iterative_spectral_clustering,
        network,
        utilization_threshold=threshold,
        rng=index,
    )
    assert result.iterations > 1


def test_scale_free_tiers_match():
    network = scale_free_network(300, 2, rng=1)
    result = _assert_same_records(
        cluster_hierarchical, _old_cluster_hierarchical, network, tier_size=64, rng=2
    )
    assert result.metadata["tiers"] > 2 and result.crossbars


# ----------------------------------------------------------------------
# The cover check
# ----------------------------------------------------------------------
TAMPERS = (
    "none",
    "duplicate_within_crossbar",
    "duplicate_across_crossbars",
    "crossbar_and_synapse",
    "duplicate_synapse",
    "missing",
    "phantom",
    "out_of_range",
)


def _tampered(instance, connections):
    """``instance`` with its connections replaced, bypassing the constructor's checks."""
    tampered = dataclasses.replace(instance)
    object.__setattr__(tampered, "connections", pair_array(connections))
    return tampered


@st.composite
def covers(draw, tamper):
    """A network and an exact cover of it by crossbars and synapses, tampered."""
    network = draw(small_networks(min_n=4, max_n=24))
    edges = _edge_list(network)
    assume(edges)
    groups = draw(st.lists(st.integers(-1, 3), min_size=len(edges), max_size=len(edges)))
    instances = []
    for group in range(4):
        pairs = [pair for pair, g in zip(edges, groups) if g == group]
        if draw(st.booleans()):
            pairs = draw(st.permutations(pairs))
        if draw(st.booleans()):  # an AutoNCS cluster: rows == cols
            rows = cols = tuple(sorted({v for pair in pairs for v in pair}))
        else:  # a FullCro-style tile
            rows = tuple(sorted({i for i, _ in pairs}))
            cols = tuple(sorted({j for _, j in pairs}))
        size = max(len(rows), len(cols), 1)
        instances.append(
            CrossbarInstance(rows=rows, cols=cols, size=size, connections=tuple(pairs))
        )
    synapses = draw(st.permutations([pair for pair, g in zip(edges, groups) if g == -1]))
    on_crossbars = [k for k, x in enumerate(instances) if x.connections.size]
    if tamper == "duplicate_within_crossbar":
        assume(on_crossbars)
        k = draw(st.sampled_from(on_crossbars))
        connections = _tuples(instances[k].connections)
        pair = draw(st.sampled_from(connections))
        connections.insert(draw(st.integers(0, len(connections))), pair)
        instances[k] = _tampered(instances[k], connections)
    elif tamper == "duplicate_across_crossbars":
        assume(on_crossbars)
        k = draw(st.sampled_from(on_crossbars))
        other = draw(st.sampled_from([x for x in range(4) if x != k]))
        pair = draw(st.sampled_from(_tuples(instances[k].connections)))
        instances[other] = _tampered(
            instances[other], _tuples(instances[other].connections) + [pair]
        )
    elif tamper == "crossbar_and_synapse":
        assume(on_crossbars)
        k = draw(st.sampled_from(on_crossbars))
        pair = draw(st.sampled_from(_tuples(instances[k].connections)))
        synapses.insert(draw(st.integers(0, len(synapses))), pair)
    elif tamper == "duplicate_synapse":
        assume(synapses)
        synapses.insert(draw(st.integers(0, len(synapses))), draw(st.sampled_from(synapses)))
    elif tamper == "missing":
        pair = draw(st.sampled_from(edges))
        synapses = [p for p in synapses if p != pair]
        instances = [
            _tampered(x, [p for p in _tuples(x.connections) if p != pair])
            if pair in _tuples(x.connections)
            else x
            for x in instances
        ]
    elif tamper in ("phantom", "out_of_range"):
        n = network.size
        edge_set = set(edges)
        if tamper == "phantom":
            absent = [(i, j) for i in range(n) for j in range(n) if (i, j) not in edge_set]
            assume(absent)
            pair = draw(st.sampled_from(absent))
        else:
            pair = draw(st.sampled_from([(n, 0), (0, n), (-1, 0), (0, n + 3)]))
        if draw(st.booleans()):
            synapses.insert(draw(st.integers(0, len(synapses))), pair)
        else:
            k = draw(st.integers(0, 3))
            instances[k] = _tampered(instances[k], _tuples(instances[k].connections) + [pair])
    return network, instances, synapses


def _rejects(check) -> bool:
    try:
        check()
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("tamper", TAMPERS)
@settings(max_examples=30)
@given(data=st.data())
def test_cover_check_rejects_what_the_set_bodies_rejected(tamper, data):
    network, instances, synapses = data.draw(covers(tamper))
    old_isc = _OldIscResult(network, instances, list(synapses), records=[], utilization_threshold=0)
    old_mapping = _OldMapping(network, instances, list(synapses))
    new = _rejects(lambda: check_exact_cover(instances, synapses, network))
    assert new == _rejects(old_isc.validate) == _rejects(old_mapping.validate)
    assert new == (tamper != "none")
