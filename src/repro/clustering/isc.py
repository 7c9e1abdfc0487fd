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
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.clustering.gcp import greedy_cluster_size_prediction
from repro.clustering.preference import (
    crossbar_preference,
    crossbar_utilization,
    minimum_satisfiable_size,
)
from repro.hardware.crossbar import (
    CrossbarInstance,
    check_exact_cover,
    clustered_connections,
    mean_utilization,
    pair_array,
    size_histogram,
)
from repro.hardware.library import DEFAULT_CROSSBAR_SIZES, check_crossbar_sizes
from repro.networks.connection_matrix import ConnectionMatrix
from repro.observability import get_recorder
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_whole_number

#: "we empirically remove only the top 25% clusters with the high CPs".
DEFAULT_SELECTION_QUANTILE = 0.75


@dataclass
class IscIterationRecord:
    """Per-iteration statistics driving the Fig. 7–9 analysis panels.

    ``clusters_formed`` counts the clusters holding a neuron with a
    remaining connection, not the clusterer's chunks of isolated neurons.
    """

    iteration: int
    clusters_formed: int
    crossbars_placed: int
    connections_clustered: int
    average_utilization: float
    average_preference: float
    outlier_ratio_after: float
    quartile_preference: float


@dataclass(eq=False)
class IscResult:
    """Full output of an ISC run: the hybrid implementation topology.

    Each crossbar is a :class:`~repro.hardware.crossbar.CrossbarInstance`
    whose rows and columns are one cluster's neurons (``rows == cols``)
    and whose size is the cluster's minimum satisfiable library size;
    the mapping places these very instances.  ``outliers`` holds the
    connections left to discrete synapses as a read-only ``(k, 2)``
    ``int64`` array in row-major order (see
    :func:`~repro.hardware.crossbar.pair_array`).
    """

    network: ConnectionMatrix
    crossbars: List[CrossbarInstance]
    outliers: np.ndarray
    records: List[IscIterationRecord]
    utilization_threshold: float
    sizes: Tuple[int, ...] = DEFAULT_CROSSBAR_SIZES
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.outliers = pair_array(self.outliers, "outliers")

    @property
    def iterations(self) -> int:
        """Number of completed ISC iterations."""
        return len(self.records)

    @property
    def clustered_connections(self) -> int:
        """Connections absorbed into crossbars."""
        return clustered_connections(self.crossbars)

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
        return mean_utilization(self.crossbars)

    def crossbar_size_histogram(self) -> Dict[int, int]:
        """Size → count over placed crossbars (the Fig. 7–9(c) panel)."""
        return size_histogram(self.crossbars)

    def validate(self) -> None:
        """Check the invariant: crossbars + outliers = exactly the network.

        Raises ``AssertionError`` when any connection is dropped, duplicated
        or invented — the core correctness property of the flow (see
        :func:`~repro.hardware.crossbar.check_exact_cover`).
        """
        check_exact_cover(self.crossbars, self.outliers, self.network)


def _crossbars(
    remaining: ConnectionMatrix, chosen: np.ndarray, sizes: Sequence[int]
) -> List[CrossbarInstance]:
    """One crossbar per selected cluster, from one O(connections) sweep.

    ``chosen`` labels the ``i``-th selected cluster ``i`` and every other
    neuron -1; ``sizes[i]`` is that cluster's crossbar size.  Members and
    connection pairs each come from one stable sort by label, so every
    crossbar's rows ascend and its pairs keep global row-major order —
    exactly the order the historical per-block ``np.nonzero`` extraction
    produced.
    """
    rows, cols, within = remaining.within_clusters(chosen)
    groups = chosen[rows[within]]
    order = np.argsort(groups, kind="stable")  # keeps row-major order per group
    pairs = np.stack([rows[within], cols[within]], axis=1)[order]
    pair_bounds = np.cumsum(np.bincount(groups + 1, minlength=len(sizes) + 1))
    neurons = np.argsort(chosen, kind="stable")  # the -1 neurons come first
    member_bounds = np.cumsum(np.bincount(chosen + 1, minlength=len(sizes) + 1))
    crossbars = []
    for index, size in enumerate(sizes):
        members = neurons[member_bounds[index] : member_bounds[index + 1]]
        crossbars.append(
            CrossbarInstance(
                rows=members,
                cols=members,
                size=size,
                connections=pairs[pair_bounds[index] : pair_bounds[index + 1]],
            )
        )
    return crossbars


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
        ClusteringResult`` used each iteration; ISC reads its ``labels``
        and its ``metadata["kmeans_calls"]``.  Defaults to GCP
        (Algorithm 2); :func:`repro.clustering.modularity.
        modularity_clustering` is a drop-in alternative for ablations.

    Returns
    -------
    IscResult
        Crossbar instances, residual outlier connections, and the
        per-iteration records used by the Fig. 7–9 analyses.
    """
    if not isinstance(network, ConnectionMatrix):
        raise TypeError("network must be a ConnectionMatrix")
    size_list = check_crossbar_sizes("sizes", sizes)
    if not 0.0 < selection_quantile < 1.0:
        raise ValueError(f"selection_quantile must lie in (0, 1), got {selection_quantile}")
    max_iterations = check_whole_number("max_iterations", max_iterations)
    rng = ensure_rng(rng)
    max_s = size_list[-1]
    total_connections = network.num_connections

    remaining = network.copy(name=f"{network.name}-remaining")
    crossbars: List[CrossbarInstance] = []
    records: List[IscIterationRecord] = []
    recorder = get_recorder()
    kmeans_calls = 0  # plain int, flushed once per run

    iteration = 0
    while iteration < max_iterations and remaining.num_connections > 0:
        iteration += 1
        with recorder.span("isc.iteration", iteration=iteration, neurons=remaining.size) as span:
            connected = (remaining.out_degrees() + remaining.in_degrees()) > 0
            span.annotate(live_neurons=int(np.count_nonzero(connected)))
            # Algorithm 3 line 3: cluster the remaining network, size-capped.
            clustering = clusterer(remaining, max_s, rng=rng)
            calls = clustering.metadata.get("kmeans_calls", 0)
            span.annotate(kmeans_calls=calls)
            kmeans_calls += calls
            # Lines 4-5: score clusters by CP at their minimum satisfiable size.
            # The labels partition the network, so all within-counts come from
            # a single O(connections) pass.
            labels = clustering.labels
            within_counts = remaining.connections_within_many(labels)
            scored = []
            for cluster, (m, size) in enumerate(zip(within_counts.tolist(), clustering.sizes())):
                if m == 0:
                    continue  # a cluster with no connections never earns a crossbar
                s = minimum_satisfiable_size(size, size_list)
                if s is None:  # pragma: no cover - GCP caps sizes at max(S)
                    continue
                scored.append((cluster, size, s, float(preference(m, s))))
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
            if minimum_satisfiable_size(boundary[1], size_list) is None:
                break
            # Lines 9-14: realize the selected clusters, delete their
            # connections from the remaining network.  Selected clusters are
            # disjoint, so one relabelling (selection order, -1 elsewhere)
            # serves both the pair extraction and a single batch removal —
            # identical to the sequential extract-then-remove loop.
            position = np.full(clustering.k, -1, dtype=np.int64)
            position[[item[0] for item in selected]] = np.arange(len(selected))
            chosen = position[labels]
            placed = _crossbars(remaining, chosen, [item[2] for item in selected])
            remaining = remaining.remove_clusters(chosen)
            crossbars.extend(placed)
            # Line 15: average utilization of the crossbars placed this round.
            ms = [(x.utilized_connections, x.size) for x in placed]
            avg_u = float(np.mean([crossbar_utilization(m, s) for m, s in ms]))
            avg_cp = float(np.mean([crossbar_preference(m, s) for m, s in ms]))
            records.append(
                IscIterationRecord(
                    iteration=iteration,
                    # GCP's chunks of isolated neurons are not clusters formed.
                    clusters_formed=int(np.unique(labels[connected]).size),
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
            # Line 17: continue while u >= t.
            if avg_u < utilization_threshold:
                break

    # Line 18: whatever is left becomes discrete memristor synapses.
    outliers = np.stack(remaining.connection_arrays(), axis=1)
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
    recorder.count("isc.runs")
    recorder.count("isc.iterations", result.iterations)
    recorder.count("isc.kmeans_calls", kmeans_calls)
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

