"""The member-list partition code that label arrays replaced, as test-local references.

A clustering used to be a list of ``Cluster`` member tuples:
``clusters_from_labels`` built them from a clusterer's label array,
``ClusteringResult`` checked the cover with Python sets, and
``ConnectionMatrix`` counted and removed clusters given as member lists,
rebuilding a label array on every call.  ISC extracted each selected
cluster's pairs through ``_clusters_connections`` and the tiered pass
rebuilt the tier labels from the coarse partition's clusters.  These are
those bodies — the ``ConnectionMatrix`` methods as functions of the
network — plus the ISC loop and the tier stitch that read them.  The
old-vs-new suites import them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.gcp import greedy_cluster_size_prediction
from repro.clustering.hierarchical import _fast_gcp, coarse_partition
from repro.clustering.isc import DEFAULT_SELECTION_QUANTILE, IscIterationRecord, IscResult
from repro.clustering.preference import (
    crossbar_preference,
    crossbar_utilization,
    minimum_satisfiable_size,
)
from repro.hardware.crossbar import CrossbarInstance, clustered_connections
from repro.hardware.library import DEFAULT_CROSSBAR_SIZES
from repro.networks.connection_matrix import ConnectionMatrix
from repro.observability import get_recorder
from repro.utils.rng import ensure_rng, spawn_rng


# ----------------------------------------------------------------------
# The result containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cluster:
    members: Tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(int(m) for m in self.members)
        if len(set(members)) != len(members):
            raise ValueError("cluster members must be unique")
        object.__setattr__(self, "members", tuple(sorted(members)))

    @property
    def size(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: int) -> bool:
        return int(item) in self.members


@dataclass
class ClusteringResult:
    clusters: List[Cluster]
    n: int
    method: str = "msc"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        covered: set = set()
        for cluster in self.clusters:
            overlap = covered.intersection(cluster.members)
            if overlap:
                raise ValueError(f"clusters overlap on neurons {sorted(overlap)[:5]}")
            covered.update(cluster.members)
        if covered and (min(covered) < 0 or max(covered) >= self.n):
            raise ValueError("cluster members out of range")
        if len(covered) != self.n:
            missing = sorted(set(range(self.n)) - covered)
            raise ValueError(f"clusters must cover all {self.n} neurons; missing {missing[:5]}")

    @property
    def k(self) -> int:
        return len(self.clusters)

    def sizes(self) -> List[int]:
        return [c.size for c in self.clusters]

    def max_size(self) -> int:
        return max(self.sizes(), default=0)

    def labels(self) -> np.ndarray:
        labels = np.full(self.n, -1, dtype=int)
        for idx, cluster in enumerate(self.clusters):
            labels[list(cluster.members)] = idx
        return labels

    def permutation(self) -> np.ndarray:
        order: List[int] = []
        for cluster in self.clusters:
            order.extend(cluster.members)
        return np.asarray(order, dtype=int)


def clusters_from_labels(labels: Sequence[int]) -> List[Cluster]:
    labels = np.asarray(list(labels), dtype=int)
    clusters = []
    for value in np.unique(labels):
        members = np.nonzero(labels == value)[0]
        if members.size:
            clusters.append(Cluster(tuple(int(m) for m in members)))
    return clusters


def as_parent(result) -> ClusteringResult:
    """A label-array result in the member-list form the parent built from the same labels."""
    return ClusteringResult(
        clusters=clusters_from_labels(result.labels),
        n=result.n,
        method=result.method,
        metadata=result.metadata,
    )


# ----------------------------------------------------------------------
# ConnectionMatrix's member-list methods, as functions of the network
# ----------------------------------------------------------------------
def _check_indices(network: ConnectionMatrix, idx: np.ndarray) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= network.size):
        raise IndexError(
            f"neuron indices must lie in [0, {network.size}), got range "
            f"[{idx.min()}, {idx.max()}]"
        )


def membership(network: ConnectionMatrix, cluster: Sequence[int]) -> np.ndarray:
    idx = np.asarray(list(cluster), dtype=int)
    _check_indices(network, idx)
    return idx


def cluster_labels(network: ConnectionMatrix, clusters: Sequence[Sequence[int]]) -> np.ndarray:
    label = np.full(network.size, -1, dtype=np.int64)
    for position, cluster in enumerate(clusters):
        idx = membership(network, cluster)
        if np.any(label[idx] != -1):
            raise ValueError("clusters must be disjoint")
        label[idx] = position
    return label


def connections_within(network: ConnectionMatrix, cluster: Sequence[int]) -> int:
    idx = membership(network, cluster)
    if idx.size == 0:
        return 0
    rows, cols = network.connection_arrays()
    mask = np.zeros(network.size, dtype=bool)
    mask[idx] = True
    return int(np.count_nonzero(mask[rows] & mask[cols]))


def connections_within_many(
    network: ConnectionMatrix, clusters: Sequence[Sequence[int]]
) -> np.ndarray:
    label = cluster_labels(network, clusters)
    counts = np.zeros(len(clusters), dtype=np.int64)
    if not len(clusters):
        return counts
    rows, cols = network.connection_arrays()
    if rows.size == 0:
        return counts
    within = (label[rows] >= 0) & (label[rows] == label[cols])
    counts += np.bincount(label[rows][within], minlength=len(clusters))
    return counts


def connections_within_clusters(
    network: ConnectionMatrix, clusters: Iterable[Sequence[int]]
) -> int:
    return int(connections_within_many(network, list(clusters)).sum())


def outlier_count(network: ConnectionMatrix, clusters: Iterable[Sequence[int]]) -> int:
    return network.num_connections - connections_within_clusters(network, clusters)


def outlier_ratio(network: ConnectionMatrix, clusters: Iterable[Sequence[int]]) -> float:
    total = network.num_connections
    if total == 0:
        return 0.0
    return outlier_count(network, clusters) / total


def remove_clusters(
    network: ConnectionMatrix, clusters: Iterable[Sequence[int]]
) -> ConnectionMatrix:
    label = cluster_labels(network, list(clusters))
    rows, cols = network.connection_arrays()
    keep = ~((label[rows] >= 0) & (label[rows] == label[cols]))
    return ConnectionMatrix.from_edges(network.size, (rows[keep], cols[keep]), name=network.name)


def remove_cluster(network: ConnectionMatrix, cluster: Sequence[int]) -> ConnectionMatrix:
    return remove_clusters(network, [cluster])


def clusters_connections(
    member_lists: Sequence[Sequence[int]], remaining: ConnectionMatrix
) -> List[Tuple[Tuple[int, int], ...]]:
    """ISC's per-cluster pair extraction (``isc._clusters_connections``)."""
    label = np.full(remaining.size, -1, dtype=np.int64)
    for position, members in enumerate(member_lists):
        label[np.asarray(list(members), dtype=int)] = position
    rows, cols = remaining.connection_arrays()
    within = (label[rows] >= 0) & (label[rows] == label[cols])
    rows, cols = rows[within], cols[within]
    groups = label[rows]
    order = np.argsort(groups, kind="stable")
    rows, cols, groups = rows[order], cols[order], groups[order]
    counts = np.bincount(groups, minlength=len(member_lists))
    results: List[Tuple[Tuple[int, int], ...]] = []
    start = 0
    for count in counts:
        stop = start + int(count)
        results.append(tuple(zip(rows[start:stop].tolist(), cols[start:stop].tolist())))
        start = stop
    return results


# ----------------------------------------------------------------------
# The ISC loop and the tier stitch over member lists
# ----------------------------------------------------------------------
def iterative_spectral_clustering(
    network: ConnectionMatrix,
    sizes: Sequence[int] = DEFAULT_CROSSBAR_SIZES,
    utilization_threshold: float = 0.05,
    selection_quantile: float = DEFAULT_SELECTION_QUANTILE,
    max_iterations: int = 50,
    rng=None,
    preference: Callable[[int, int], float] = crossbar_preference,
    clusterer: Callable[..., object] = greedy_cluster_size_prediction,
) -> IscResult:
    size_list = tuple(sorted(int(s) for s in sizes))
    rng = ensure_rng(rng)
    max_s = size_list[-1]
    total_connections = network.num_connections
    remaining = network.copy(name=f"{network.name}-remaining")
    crossbars: List[CrossbarInstance] = []
    records: List[IscIterationRecord] = []
    recorder = get_recorder()
    kmeans_calls = 0
    iteration = 0
    while iteration < max_iterations and remaining.num_connections > 0:
        iteration += 1
        with recorder.span("isc.iteration", iteration=iteration, neurons=remaining.size) as span:
            connected = (remaining.out_degrees() + remaining.in_degrees()) > 0
            span.annotate(live_neurons=int(np.count_nonzero(connected)))
            clustering = as_parent(clusterer(remaining, max_s, rng=rng))
            calls = clustering.metadata.get("kmeans_calls", 0)
            span.annotate(kmeans_calls=calls)
            kmeans_calls += calls
            within_counts = connections_within_many(
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
            connection_groups = clusters_connections(
                [cluster.members for cluster, _, _, _ in selected], remaining
            )
            placed = [
                CrossbarInstance(
                    rows=cluster.members, cols=cluster.members, size=s, connections=connections
                )
                for (cluster, _, s, _), connections in zip(selected, connection_groups)
            ]
            remaining = remove_clusters(
                remaining, [cluster.members for cluster, _, _, _ in selected]
            )
            crossbars.extend(placed)
            ms = [(x.utilized_connections, x.size) for x in placed]
            avg_u = float(np.mean([crossbar_utilization(m, s) for m, s in ms]))
            avg_cp = float(np.mean([crossbar_preference(m, s) for m, s in ms]))
            records.append(
                IscIterationRecord(
                    iteration=iteration,
                    clusters_formed=sum(
                        bool(connected[list(cluster.members)].any())
                        for cluster in clustering.clusters
                    ),
                    crossbars_placed=len(placed),
                    connections_clustered=clustered_connections(placed),
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
    out_rows, out_cols = remaining.connection_arrays()
    outliers = list(zip(out_rows.tolist(), out_cols.tolist()))
    result = IscResult(
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


def cluster_hierarchical(
    network: ConnectionMatrix,
    sizes: Sequence[int] = DEFAULT_CROSSBAR_SIZES,
    utilization_threshold: float = 0.05,
    selection_quantile: float = DEFAULT_SELECTION_QUANTILE,
    max_iterations: int = 50,
    tier_size: int = 1024,
    rng=None,
    preference: Callable[[int, int], float] = crossbar_preference,
    clusterer: Optional[Callable[..., object]] = None,
) -> IscResult:
    rng = ensure_rng(rng)
    recorder = get_recorder()
    if network.size <= tier_size:
        return iterative_spectral_clustering(
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
        partition = as_parent(coarse_partition(network, tier_size=tier_size, rng=partition_rng))
    tiers = partition.clusters
    tier_rngs = spawn_rng(tier_parent_rng, len(tiers))
    crossbars: List[CrossbarInstance] = []
    records: List[IscIterationRecord] = []
    outlier_parts: List[Tuple[np.ndarray, np.ndarray]] = []
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
            tier_result = iterative_spectral_clustering(
                sub_network,
                sizes=sizes,
                utilization_threshold=utilization_threshold,
                selection_quantile=selection_quantile,
                max_iterations=max_iterations,
                rng=tier_rng,
                preference=preference,
                clusterer=clusterer,
            )
        for crossbar in tier_result.crossbars:
            rows = tuple(members[list(crossbar.rows)].tolist())
            pairs = members[np.asarray(crossbar.connections, dtype=np.int64).reshape(-1, 2)]
            crossbars.append(
                CrossbarInstance(
                    rows=rows,
                    cols=rows,
                    size=crossbar.size,
                    connections=tuple(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())),
                )
            )
        records.extend(
            dataclasses.replace(record, iteration=record.iteration + iteration_offset)
            for record in tier_result.records
        )
        iteration_offset += tier_result.iterations
        if len(tier_result.outliers):
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
    result = IscResult(
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
