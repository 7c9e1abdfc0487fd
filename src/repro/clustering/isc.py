"""Iterative spectral clustering, ISC (paper Algorithm 3, Sec. 3.4).

One pass of MSC+GCP leaves most connections as outliers (57 % on the paper's
400×400 example) and re-clustering the *whole* network would break the
clusters already formed ("cluster concealing").  ISC instead removes the
realized clusters from the network and re-clusters the *remaining* network
of outliers, repeatedly.

The **partial selection strategy** keeps low-value clusters in the remaining
network: per iteration only the clusters in the top quartile of crossbar
preference (CP) are realized on crossbars ("we empirically remove only the
top 25 % clusters with the high CPs").  Iteration stops when the average
utilization of the crossbars placed in an iteration drops below the
threshold ``t`` (the paper uses the FullCro baseline utilization), or when
the quartile-boundary cluster no longer justifies even the smallest library
crossbar.  Whatever remains is realized with discrete synapses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.clustering.gcp import greedy_cluster_size_prediction
from repro.clustering.preference import (
    crossbar_preference,
    crossbar_utilization,
    minimum_satisfiable_size,
)
from repro.clustering.result import Cluster
from repro.networks.connection_matrix import ConnectionMatrix
from repro.observability import get_recorder
from repro.utils.rng import RngLike, ensure_rng

#: The paper's crossbar library: sizes 16..64 at a step of 4 (Sec. 4.2).
DEFAULT_CROSSBAR_SIZES: Tuple[int, ...] = tuple(range(16, 65, 4))

#: "we empirically remove only the top 25% clusters with the high CPs".
DEFAULT_SELECTION_QUANTILE = 0.75


@dataclass(frozen=True)
class CrossbarAssignment:
    """A cluster realized on a physical crossbar.

    Attributes
    ----------
    members:
        Neuron indices whose mutual connections the crossbar implements
        (rows = these neurons as inputs, columns = same neurons as outputs).
    size:
        Library crossbar dimension ``s`` (the minimum satisfiable size).
    connections:
        The global ``(i, j)`` connection pairs the crossbar absorbs.
    iteration:
        1-based ISC iteration in which the crossbar was placed.
    """

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
        """The paper's ``m`` — connections implemented by this crossbar."""
        return len(self.connections)

    @property
    def utilization(self) -> float:
        """``u = m / s²`` (Sec. 3.1)."""
        return crossbar_utilization(self.utilized_connections, self.size)

    @property
    def preference(self) -> float:
        """``CP = m²/s³`` (Sec. 3.1)."""
        return crossbar_preference(self.utilized_connections, self.size)


@dataclass
class IscIterationRecord:
    """Per-iteration statistics driving the Fig. 7–9 analysis panels."""

    iteration: int
    clusters_formed: int
    crossbars_placed: int
    connections_clustered: int
    average_utilization: float
    average_preference: float
    outlier_ratio_after: float
    quartile_preference: float


@dataclass
class IscResult:
    """Full output of an ISC run: the hybrid implementation topology."""

    network: ConnectionMatrix
    crossbars: List[CrossbarAssignment]
    outliers: List[Tuple[int, int]]
    records: List[IscIterationRecord]
    utilization_threshold: float
    sizes: Tuple[int, ...] = DEFAULT_CROSSBAR_SIZES
    metadata: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        """Number of completed ISC iterations."""
        return len(self.records)

    @property
    def clustered_connections(self) -> int:
        """Connections absorbed into crossbars."""
        return sum(x.utilized_connections for x in self.crossbars)

    @property
    def outlier_ratio(self) -> float:
        """Fraction of network connections left to discrete synapses."""
        total = self.network.num_connections
        if total == 0:
            return 0.0
        return len(self.outliers) / total

    @property
    def average_utilization(self) -> float:
        """Mean utilization over all placed crossbars (0 when none)."""
        if not self.crossbars:
            return 0.0
        return float(np.mean([x.utilization for x in self.crossbars]))

    def crossbar_size_histogram(self) -> dict:
        """Size → count over placed crossbars (the Fig. 7–9(c) panel)."""
        histogram: dict = {}
        for assignment in self.crossbars:
            histogram[assignment.size] = histogram.get(assignment.size, 0) + 1
        return dict(sorted(histogram.items()))

    def validate(self) -> None:
        """Check the invariant: crossbars + outliers = exactly the network.

        Raises ``AssertionError`` when any connection is dropped, duplicated
        or invented — the core correctness property of the flow.
        """
        implemented: set = set()
        for assignment in self.crossbars:
            for pair in assignment.connections:
                assert pair not in implemented, f"connection {pair} implemented twice"
                implemented.add(pair)
        for pair in self.outliers:
            assert pair not in implemented, f"outlier {pair} also on a crossbar"
            implemented.add(pair)
        expected = set(self.network.connection_list())
        assert implemented == expected, (
            f"implementation covers {len(implemented)} connections, "
            f"network has {len(expected)}"
        )


def _clusters_connections(
    member_lists: Sequence[Sequence[int]], remaining: ConnectionMatrix
) -> List[Tuple[Tuple[int, int], ...]]:
    """Per-cluster within-cluster connection pairs for **disjoint** clusters.

    One O(connections) sweep over the edge arrays instead of one submatrix
    extraction per cluster.  Pairs come out in global row-major order,
    which — because cluster members are sorted ascending — is exactly the
    order the historical per-block ``np.nonzero`` extraction produced.
    """
    label = np.full(remaining.size, -1, dtype=np.int64)
    for position, members in enumerate(member_lists):
        label[np.asarray(list(members), dtype=int)] = position
    rows, cols = remaining.connection_arrays()
    within = (label[rows] >= 0) & (label[rows] == label[cols])
    rows, cols = rows[within], cols[within]
    groups = label[rows]
    order = np.argsort(groups, kind="stable")  # keeps row-major order per group
    rows, cols, groups = rows[order], cols[order], groups[order]
    counts = np.bincount(groups, minlength=len(member_lists))
    results: List[Tuple[Tuple[int, int], ...]] = []
    start = 0
    for count in counts:
        stop = start + int(count)
        results.append(
            tuple(zip(rows[start:stop].tolist(), cols[start:stop].tolist()))
        )
        start = stop
    return results


def iterative_spectral_clustering(
    network: ConnectionMatrix,
    sizes: Sequence[int] = DEFAULT_CROSSBAR_SIZES,
    utilization_threshold: float = 0.05,
    selection_quantile: float = DEFAULT_SELECTION_QUANTILE,
    max_iterations: int = 50,
    rng: RngLike = None,
    preference: Callable[[int, int], float] = crossbar_preference,
    clusterer: Callable[..., "object"] = greedy_cluster_size_prediction,
) -> IscResult:
    """Run ISC (Algorithm 3) and return the hybrid implementation topology.

    Parameters
    ----------
    network:
        The binary connection matrix to implement.
    sizes:
        Crossbar library dimensions ``S`` (paper: 16..64 step 4).
    utilization_threshold:
        Stop iterating once the average utilization of the crossbars placed
        in an iteration falls below this ``t``.  The paper sets ``t`` to the
        FullCro baseline utilization (see
        :func:`repro.mapping.fullcro.fullcro_utilization`).
    selection_quantile:
        Quantile of the per-iteration CP distribution above which clusters
        are realized (0.75 → top 25 %, the paper's empirical choice).
    max_iterations:
        Hard safety cap on iterations.
    preference:
        Scoring function ``(m, s) → CP`` for a cluster with ``m``
        connections on an ``s × s`` crossbar.  Defaults to the paper's
        ``m²/s³``; the ablation benches swap in alternatives.
    clusterer:
        Size-capped clustering routine ``(network, max_size, rng=...) →
        ClusteringResult`` used each iteration.  Defaults to GCP
        (Algorithm 2); :func:`repro.clustering.modularity.
        modularity_clustering` is a drop-in alternative for ablations.

    Returns
    -------
    IscResult
        Crossbar assignments, residual outlier connections, and the
        per-iteration records used by the Fig. 7–9 analyses.
    """
    if not isinstance(network, ConnectionMatrix):
        raise TypeError("network must be a ConnectionMatrix")
    size_list = tuple(sorted(int(s) for s in sizes))
    if not size_list or size_list[0] < 1:
        raise ValueError(f"sizes must be positive, got {sizes}")
    if not 0.0 < selection_quantile < 1.0:
        raise ValueError(f"selection_quantile must lie in (0, 1), got {selection_quantile}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    rng = ensure_rng(rng)
    max_s = size_list[-1]
    total_connections = network.num_connections

    remaining = network.copy(name=f"{network.name}-remaining")
    crossbars: List[CrossbarAssignment] = []
    records: List[IscIterationRecord] = []

    iteration = 0
    while iteration < max_iterations and remaining.num_connections > 0:
        iteration += 1
        # Algorithm 3 line 3: cluster the remaining network, size-capped.
        clustering = clusterer(remaining, max_s, rng=rng)
        # Lines 4-5: score clusters by CP at their minimum satisfiable size.
        # The clusters partition the network, so all within-counts come from
        # a single O(connections) pass.
        within_counts = remaining.connections_within_many(
            [cluster.members for cluster in clustering.clusters]
        )
        scored = []
        for cluster, m in zip(clustering.clusters, within_counts.tolist()):
            if m == 0:
                continue  # a cluster with no connections never earns a crossbar
            s = minimum_satisfiable_size(cluster.size, size_list)
            if s is None:  # pragma: no cover - GCP caps sizes at max(S)
                continue
            scored.append((cluster, m, s, float(preference(m, s))))
        if not scored:
            break
        cps = np.array([item[3] for item in scored])
        q = float(np.quantile(cps, selection_quantile))
        selected = [item for item in scored if item[3] >= q]
        # Algorithm 3 line 6: stop when the quartile-boundary cluster cannot
        # be served by the library.  With the minimum-satisfiable policy a
        # GCP cluster always fits some crossbar, so in practice the
        # utilization rule (line 17, and the one Sec. 4.2 describes as the
        # experiment's stop condition) governs termination; this break is a
        # safety check for mis-matched library/GCP size limits.
        boundary = min(selected, key=lambda item: item[3])
        if minimum_satisfiable_size(boundary[0].size, size_list) is None:
            break
        # Lines 9-14: realize the selected clusters, delete their
        # connections from the remaining network.  Selected clusters are
        # disjoint, so extracting all connection groups up front and
        # removing them in one batch is identical to the sequential
        # extract-then-remove loop — at a single edge sweep instead of
        # one matrix rebuild per cluster.
        connection_groups = _clusters_connections(
            [cluster.members for cluster, _, _, _ in selected], remaining
        )
        placed: List[CrossbarAssignment] = []
        for (cluster, m, s, cp), connections in zip(selected, connection_groups):
            placed.append(
                CrossbarAssignment(
                    members=cluster.members,
                    size=s,
                    connections=connections,
                    iteration=iteration,
                )
            )
        remaining = remaining.remove_clusters(
            [cluster.members for cluster, _, _, _ in selected]
        )
        crossbars.extend(placed)
        # Line 15: average utilization of the crossbars placed this round.
        avg_u = float(np.mean([x.utilization for x in placed]))
        avg_cp = float(np.mean([x.preference for x in placed]))
        records.append(
            IscIterationRecord(
                iteration=iteration,
                clusters_formed=len(clustering.clusters),
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
        # Line 17: continue while u >= t.
        if avg_u < utilization_threshold:
            break

    # Line 18: whatever is left becomes discrete memristor synapses.
    outliers = remaining.connection_list()
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

    # One observability flush per ISC run (null-recorder overhead contract).
    recorder = get_recorder()
    recorder.count("isc.runs")
    recorder.count("isc.iterations", result.iterations)
    recorder.count("isc.crossbars_placed", len(crossbars))
    recorder.count("isc.clustered_connections", result.clustered_connections)
    recorder.count("isc.outlier_connections", len(outliers))
    if recorder.enabled:
        recorder.gauge("isc.outlier_ratio", result.outlier_ratio)
        recorder.gauge("isc.average_utilization", result.average_utilization)
        recorder.observe_many(
            "isc.crossbar_size", [float(x.size) for x in crossbars]
        )
    return result


def single_pass_clusters(
    network: ConnectionMatrix,
    max_size: int,
    rng: RngLike = None,
) -> List[Cluster]:
    """Convenience: one MSC+GCP pass, returning clusters with ≥1 connection.

    This is what Fig. 3/4 visualize before ISC enters the picture.
    """
    clustering = greedy_cluster_size_prediction(network, max_size, rng=rng)
    return [
        cluster
        for cluster in clustering.clusters
        if network.connections_within(cluster.members) > 0
    ]
