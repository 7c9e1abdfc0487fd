"""Tiered (hierarchical) clustering for very large networks.

ISC re-clusters the *whole* remaining network every iteration, which is
wasteful above a few thousand neurons: each GCP pass costs a truncated
eigensolve over all ``n`` neurons, repeated for every ISC iteration.  The
tiered pass borrows the decompose-then-map structure of *Group Scissor*
(PAPERS.md): first a single coarse spectral partition cuts the network into
**tiers** of at most ``tier_size`` neurons, then full ISC runs independently
inside each tier (a dense problem of bounded size), and finally the per-tier
results are stitched back together — cross-tier connections join the
per-tier leftovers as discrete-synapse outliers.

The result is a regular :class:`~repro.clustering.isc.IscResult` over the
original network, so mapping, verification and reporting downstream are
unchanged.  The trade-off is explicit: connections cut by the coarse
partition can never be absorbed by a crossbar, so the outlier ratio is
bounded below by the coarse cut ratio; in exchange the cost drops from
"many eigensolves over ``n``" to "one truncated eigensolve over ``n`` plus
many dense solves over ``tier_size``", which is what makes 50k+ neurons
tractable end-to-end (see DESIGN.md and BENCH_clustering.json).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.clustering.gcp import _enforce_size_limit, greedy_cluster_size_prediction
from repro.clustering.isc import (
    DEFAULT_CROSSBAR_SIZES,
    DEFAULT_SELECTION_QUANTILE,
    IscIterationRecord,
    IscResult,
    iterative_spectral_clustering,
)
from repro.clustering.kmeans import kmeans
from repro.clustering.preference import crossbar_preference
from repro.clustering.result import ClusteringResult
from repro.clustering.spectral import spectral_embedding
from repro.hardware.crossbar import CrossbarInstance
from repro.hardware.library import check_crossbar_sizes
from repro.networks.connection_matrix import ConnectionMatrix
from repro.observability import get_recorder
from repro.utils.rng import RngLike, ensure_rng, spawn_rng
from repro.utils.validation import check_whole_number

#: Default tier capacity: large enough that tiers retain real cluster
#: structure, small enough that the per-tier dense eigensolves stay cheap
#: (matches DENSE_EIGENSOLVER_CUTOFF, so every tier runs the exact solver).
DEFAULT_TIER_SIZE = 1024


def _fast_gcp(network, max_size: int, rng: RngLike = None):
    """GCP with the fast bisection split — the tiered pass's clusterer.

    The bisect mode caps sizes by recursive bisection after a single
    k-means instead of Algorithm 2's re-Lloyd split sweeps.  See
    ``split_mode`` in
    :func:`~repro.clustering.gcp.greedy_cluster_size_prediction`.
    """
    return greedy_cluster_size_prediction(
        network, max_size, rng=rng, split_mode="bisect"
    )


def coarse_partition(
    network: ConnectionMatrix,
    tier_size: int = DEFAULT_TIER_SIZE,
    rng: RngLike = None,
) -> ClusteringResult:
    """One spectral cut of the whole network into tiers of ≤ ``tier_size``.

    A single truncated embedding with ``k = ceil(n / tier_size)`` followed
    by k-means, then deterministic bisection of any oversized tier.  This
    is MSC at tier granularity — the "scissor" step.  The result's
    ``labels`` give each neuron's tier.
    """
    tier_size = check_whole_number("tier_size", tier_size)
    rng = ensure_rng(rng)
    n = network.size
    k = max(1, -(-n // tier_size))
    if k == 1:
        labels = np.zeros(n, dtype=int)
    else:
        embedding, _ = spectral_embedding(network, k=min(k, n))
        km = kmeans(embedding, k, rng=rng)
        labels, _ = _enforce_size_limit(embedding, km.labels, tier_size, rng)
    return ClusteringResult(
        labels=labels,
        method="coarse",
        metadata={"tier_size": tier_size, "tiers": int(np.unique(labels).size)},
    )


def cluster_hierarchical(
    network: ConnectionMatrix,
    sizes: Sequence[int] = DEFAULT_CROSSBAR_SIZES,
    utilization_threshold: float = 0.05,
    selection_quantile: float = DEFAULT_SELECTION_QUANTILE,
    max_iterations: int = 50,
    tier_size: int = DEFAULT_TIER_SIZE,
    rng: RngLike = None,
    preference: Callable[[int, int], float] = crossbar_preference,
    clusterer: Optional[Callable[..., "object"]] = None,
) -> IscResult:
    """Tiered ISC: coarse partition → per-tier ISC → stitch.

    Parameters mirror :func:`~repro.clustering.isc.
    iterative_spectral_clustering`, plus ``tier_size`` — the maximum number
    of neurons a tier may hold.  Networks no larger than ``tier_size``
    simply run plain ISC (one tier), so the function is a safe default for
    any scale.

    Returns an :class:`IscResult` over the **original** network whose
    crossbars are the union of the per-tier crossbars (re-indexed to global
    neuron ids) and whose outliers are the per-tier leftovers plus every
    cross-tier connection.  Tier ``t`` holds the neurons that
    :func:`coarse_partition` labels ``t``, and the cross-tier connections
    are what removing every tier's within-tier connections leaves.  Each
    tier's ISC run checks its own exact cover; the stitched result is
    checked once more before returning.

    ``clusterer=None`` (default) resolves per path: the small-network
    delegation to flat ISC uses the verbatim Algorithm 2 GCP, while the
    tiered path uses the fast bisect-split GCP.
    """
    if not isinstance(network, ConnectionMatrix):
        raise TypeError("network must be a ConnectionMatrix")
    sizes = check_crossbar_sizes("sizes", sizes)
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
        partition = coarse_partition(network, tier_size=tier_size, rng=partition_rng)
    tier_rngs = spawn_rng(tier_parent_rng, partition.k)

    crossbars: List[CrossbarInstance] = []
    records: List[IscIterationRecord] = []
    outlier_parts: List[np.ndarray] = []
    iteration_offset = 0
    tier_summaries = []
    for tier, tier_rng in enumerate(tier_rngs):
        members = np.flatnonzero(partition.labels == tier)
        block = network.submatrix(members)  # dense, ≤ tier_size × tier_size
        sub_network = ConnectionMatrix.from_dense(block, name=f"{network.name}-tier")
        if sub_network.num_connections == 0:
            tier_summaries.append({"neurons": int(members.size), "crossbars": 0})
            continue
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
        # Tier-local neuron ids → global ids, through ``members``.
        for crossbar in tier_result.crossbars:
            rows = members[crossbar.rows]
            crossbars.append(
                CrossbarInstance(
                    rows=rows,
                    cols=rows,
                    size=crossbar.size,
                    connections=members[crossbar.connections],
                )
            )
        records.extend(
            dataclasses.replace(record, iteration=record.iteration + iteration_offset)
            for record in tier_result.records
        )
        iteration_offset += tier_result.iterations
        outlier_parts.append(members[tier_result.outliers])
        tier_summaries.append(
            {"neurons": int(members.size), "crossbars": len(tier_result.crossbars)}
        )

    # Cross-tier connections: everything the coarse cut severed.
    cut = network.remove_clusters(partition.labels)
    outlier_parts.append(np.stack(cut.connection_arrays(), axis=1))

    outliers = np.concatenate(outlier_parts)
    outliers = outliers[np.lexsort((outliers[:, 1], outliers[:, 0]))]  # global row-major

    total = network.num_connections
    result = IscResult(
        network=network,
        crossbars=crossbars,
        outliers=outliers,
        records=records,
        utilization_threshold=utilization_threshold,
        sizes=sizes,
        metadata={
            "method": "hierarchical",
            "tier_size": tier_size,
            "tiers": partition.k,
            "tier_summaries": tier_summaries,
            "cut_ratio": (cut.num_connections / total) if total else 0.0,
            "max_iterations": max_iterations,
            "selection_quantile": selection_quantile,
        },
    )
    result.validate()
    recorder.count("hierarchical.runs")
    recorder.count("hierarchical.tiers", partition.k)
    if recorder.enabled:
        recorder.gauge("hierarchical.cut_ratio", result.metadata["cut_ratio"])
    return result
