"""Per-figure experiment drivers (paper Figs. 3–10).

Each function regenerates the data behind one figure as a dataclass of
plain numbers/series; the benchmark harness prints them next to the
paper's reference values.  No plotting dependency is required — the series
are the figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clustering.gcp import greedy_cluster_size_prediction
from repro.clustering.isc import (
    DEFAULT_CROSSBAR_SIZES,
    iterative_spectral_clustering,
)
from repro.clustering.spectral import modified_spectral_clustering
from repro.clustering.traversing import traversing_clustering
from repro.core.autoncs import AutoNCS
from repro.core.config import AutoNcsConfig
from repro.experiments.testbenches import build_testbench
from repro.mapping.fullcro import fullcro_mapping, fullcro_utilization
from repro.networks.connection_matrix import ConnectionMatrix
from repro.observability import get_recorder
from repro.utils.rng import RngLike, ensure_rng


# ----------------------------------------------------------------------
# Figure 3 — MSC on a 400×400 network
# ----------------------------------------------------------------------
@dataclass
class Figure3Result:
    """MSC before/after statistics (paper: 57 % outliers remain after MSC)."""

    n: int
    connections: int
    k: int
    cluster_sizes: List[int]
    outlier_ratio: float
    permutation: np.ndarray = field(repr=False, default=None)


def figure3(network: ConnectionMatrix, rng: RngLike = None, max_size: int = 64) -> Figure3Result:
    """One MSC pass with ``k = ceil(n / max_size)`` (the Fig. 3 setting)."""
    rng = ensure_rng(rng)
    k = max(1, math.ceil(network.size / max_size))
    clustering = modified_spectral_clustering(network, k, rng=rng)
    return Figure3Result(
        n=network.size,
        connections=network.num_connections,
        k=k,
        cluster_sizes=clustering.sizes(),
        outlier_ratio=network.outlier_ratio(clustering.labels),
        permutation=clustering.permutation(),
    )


# ----------------------------------------------------------------------
# Figure 4 — GCP vs traversing
# ----------------------------------------------------------------------
@dataclass
class Figure4Result:
    """Size-cap compliance and runtimes (paper: 106 ms GCP vs 190 ms traversing)."""

    max_size: int
    gcp_max_cluster: int
    traversing_max_cluster: int
    gcp_clusters: int
    traversing_clusters: int
    gcp_runtime_ms: float
    traversing_runtime_ms: float
    gcp_outlier_ratio: float
    traversing_outlier_ratio: float

    @property
    def speedup(self) -> float:
        """Traversing runtime over GCP runtime (paper ≈ 1.8×)."""
        if self.gcp_runtime_ms == 0.0:
            return float("inf")
        return self.traversing_runtime_ms / self.gcp_runtime_ms


def figure4(
    network: ConnectionMatrix, max_size: int = 64, rng: RngLike = None
) -> Figure4Result:
    """Run GCP and the traversing baseline on the same network."""
    rng = ensure_rng(rng)
    seed = int(rng.integers(0, 2**31 - 1))
    recorder = get_recorder()
    with recorder.span("figure4.gcp") as gcp_span:
        gcp = greedy_cluster_size_prediction(network, max_size, rng=seed)
    with recorder.span("figure4.traversing") as traversing_span:
        traversing = traversing_clustering(network, max_size, rng=seed)
    return Figure4Result(
        max_size=max_size,
        gcp_max_cluster=gcp.max_size(),
        traversing_max_cluster=traversing.max_size(),
        gcp_clusters=gcp.k,
        traversing_clusters=traversing.k,
        gcp_runtime_ms=gcp_span.duration * 1e3,
        traversing_runtime_ms=traversing_span.duration * 1e3,
        gcp_outlier_ratio=network.outlier_ratio(gcp.labels),
        traversing_outlier_ratio=network.outlier_ratio(traversing.labels),
    )


# ----------------------------------------------------------------------
# Figure 5 — clustering the remaining network
# ----------------------------------------------------------------------
@dataclass
class Figure5Result:
    """Two MSC+GCP rounds with cluster removal in between (Fig. 5(a)/(b))."""

    initial_connections: int
    round1_outliers: int
    round1_outlier_ratio: float
    round2_outliers: int
    round2_outlier_ratio: float


def figure5(
    network: ConnectionMatrix, max_size: int = 64, rng: RngLike = None
) -> Figure5Result:
    """Cluster, strip the clusters out, re-cluster the remaining network."""
    rng = ensure_rng(rng)
    total = network.num_connections
    round1 = greedy_cluster_size_prediction(network, max_size, rng=rng)
    remaining = network.remove_clusters(round1.labels)
    round2 = greedy_cluster_size_prediction(remaining, max_size, rng=rng)
    remaining2 = remaining.remove_clusters(round2.labels)
    return Figure5Result(
        initial_connections=total,
        round1_outliers=remaining.num_connections,
        round1_outlier_ratio=remaining.num_connections / total if total else 0.0,
        round2_outliers=remaining2.num_connections,
        round2_outlier_ratio=remaining2.num_connections / total if total else 0.0,
    )


# ----------------------------------------------------------------------
# Figure 6 — ISC iterations (paper: < 5 % outliers after 11 iterations)
# ----------------------------------------------------------------------
@dataclass
class Figure6Result:
    """Outlier ratio after each ISC iteration."""

    iterations: int
    outlier_ratio_series: List[float]
    final_outlier_ratio: float
    crossbars: int


def figure6(
    network: ConnectionMatrix,
    sizes: Tuple[int, ...] = DEFAULT_CROSSBAR_SIZES,
    utilization_threshold: Optional[float] = None,
    rng: RngLike = None,
) -> Figure6Result:
    """Full ISC with per-iteration outlier tracking."""
    if utilization_threshold is None:
        utilization_threshold = fullcro_utilization(network, max(sizes))
    isc = iterative_spectral_clustering(
        network, sizes=sizes, utilization_threshold=utilization_threshold, rng=rng
    )
    series = [record.outlier_ratio_after for record in isc.records]
    return Figure6Result(
        iterations=isc.iterations,
        outlier_ratio_series=series,
        final_outlier_ratio=isc.outlier_ratio,
        crossbars=len(isc.crossbars),
    )


# ----------------------------------------------------------------------
# Figures 7–9 — per-testbench ISC analysis panels
# ----------------------------------------------------------------------
@dataclass
class IscAnalysisResult:
    """The four panels of Figs. 7–9 for one testbench.

    (a) outlier ratio per iteration; (b) normalized utilization and average
    CP per iteration; (c) crossbar size histogram; (d) per-neuron
    fanin+fanout distributions (crossbar / synapse / sum), all normalized
    to the FullCro baseline.
    """

    testbench_label: str
    baseline_utilization: float
    outlier_ratio_series: List[float]
    normalized_utilization_series: List[float]
    average_preference_series: List[float]
    crossbar_size_histogram: Dict[int, int]
    fanin_fanout_crossbar: np.ndarray = field(repr=False, default=None)
    fanin_fanout_synapse: np.ndarray = field(repr=False, default=None)
    fanin_fanout_sum: np.ndarray = field(repr=False, default=None)
    baseline_fanin_fanout_sum: np.ndarray = field(repr=False, default=None)
    average_sum_vs_baseline: float = 0.0
    iterations: int = 0
    final_outlier_ratio: float = 0.0

    @property
    def clustered_ratio(self) -> float:
        """Fraction of connections absorbed into crossbars at the end."""
        return 1.0 - self.final_outlier_ratio


def isc_analysis(
    network: ConnectionMatrix,
    label: str = "",
    sizes: Tuple[int, ...] = DEFAULT_CROSSBAR_SIZES,
    rng: RngLike = None,
) -> IscAnalysisResult:
    """Produce the Fig. 7–9 panels for one network."""
    from repro.mapping.autoncs_mapping import autoncs_mapping  # local: avoid cycle

    rng = ensure_rng(rng)
    baseline_utilization = fullcro_utilization(network, max(sizes))
    isc = iterative_spectral_clustering(
        network, sizes=sizes, utilization_threshold=baseline_utilization, rng=rng
    )
    mapping = autoncs_mapping(isc)
    baseline = fullcro_mapping(network)
    breakdown = mapping.fanin_fanout()
    baseline_breakdown = baseline.fanin_fanout()
    # Panel (d) is normalized to the baseline design.
    baseline_mean = baseline_breakdown.average_total
    order = np.argsort(breakdown.total)
    norm = baseline_mean if baseline_mean > 0 else 1.0
    return IscAnalysisResult(
        testbench_label=label or network.name,
        baseline_utilization=baseline_utilization,
        outlier_ratio_series=[r.outlier_ratio_after for r in isc.records],
        normalized_utilization_series=[
            r.average_utilization / baseline_utilization if baseline_utilization else 0.0
            for r in isc.records
        ],
        average_preference_series=[r.average_preference for r in isc.records],
        crossbar_size_histogram=mapping.crossbar_size_histogram(),
        fanin_fanout_crossbar=breakdown.crossbar[order] / norm,
        fanin_fanout_synapse=breakdown.synapse[order] / norm,
        fanin_fanout_sum=breakdown.total[order] / norm,
        baseline_fanin_fanout_sum=np.sort(baseline_breakdown.total) / norm,
        average_sum_vs_baseline=(
            breakdown.average_total / baseline_mean if baseline_mean else 0.0
        ),
        iterations=isc.iterations,
        final_outlier_ratio=isc.outlier_ratio,
    )


def figure789(testbench_index: int, rng: RngLike = None) -> IscAnalysisResult:
    """Fig. 7 (TB1), Fig. 8 (TB2) or Fig. 9 (TB3) from the paper testbenches."""
    rng = ensure_rng(rng)
    instance = build_testbench(testbench_index, rng=rng)
    return isc_analysis(
        instance.network, label=instance.testbench.label, rng=rng
    )


# ----------------------------------------------------------------------
# Figure 10 — placement & routing layouts and congestion maps
# ----------------------------------------------------------------------
@dataclass
class LayoutSnapshot:
    """One design's physical layout data for the Fig. 10 panels."""

    design: str
    cell_x: np.ndarray
    cell_y: np.ndarray
    cell_w: np.ndarray
    cell_h: np.ndarray
    cell_kinds: np.ndarray
    congestion: np.ndarray
    wirelength_um: float
    area_um2: float
    delay_ns: float

    @property
    def peak_congestion(self) -> float:
        """Maximum per-bin wire count."""
        return float(self.congestion.max()) if self.congestion.size else 0.0

    def center_congestion_ratio(self) -> float:
        """Mean congestion of the central ninth over the whole map.

        The paper's FullCro shows "heavy wire congestion in the center"
        (Fig. 10(b)); this ratio quantifies it.
        """
        c = self.congestion
        if c.size == 0:
            return 0.0
        nx, ny = c.shape
        cx0, cx1 = nx // 3, max(nx // 3 * 2, nx // 3 + 1)
        cy0, cy1 = ny // 3, max(ny // 3 * 2, ny // 3 + 1)
        center = c[cx0:cx1, cy0:cy1]
        overall = float(c.mean())
        if overall == 0.0:
            return 0.0
        return float(center.mean()) / overall


@dataclass
class Figure10Result:
    """Layouts + congestion maps for FullCro and AutoNCS (testbench 3)."""

    fullcro: LayoutSnapshot
    autoncs: LayoutSnapshot


def _snapshot(design, name: str) -> LayoutSnapshot:
    placement = design.placement
    return LayoutSnapshot(
        design=name,
        cell_x=placement.x,
        cell_y=placement.y,
        cell_w=placement.widths,
        cell_h=placement.heights,
        cell_kinds=design.mapping.netlist.kinds,
        congestion=design.routing.congestion_map(),
        wirelength_um=design.cost.wirelength_um,
        area_um2=design.cost.area_um2,
        delay_ns=design.cost.average_delay_ns,
    )


def figure10(
    testbench_index: int = 3,
    config: Optional[AutoNcsConfig] = None,
    rng: RngLike = None,
) -> Figure10Result:
    """Full physical implementation of a testbench in both designs."""
    rng = ensure_rng(rng)
    instance = build_testbench(testbench_index, rng=rng)
    flow = AutoNCS(config)
    result = flow.run(instance.network, rng=rng)
    baseline = flow.run_baseline(instance.network, rng=rng)
    return Figure10Result(
        fullcro=_snapshot(baseline, "FullCro"),
        autoncs=_snapshot(result.design, "AutoNCS"),
    )
