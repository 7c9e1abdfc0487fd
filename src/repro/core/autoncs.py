"""The AutoNCS driver (paper Fig. 2), hardened for production use.

``AutoNCS.run`` executes the complete flow on a network:

1. ISC (MSC + GCP + partial selection) clusters the connections;
2. the clusters map to library crossbars, outliers to discrete synapses;
3. the customized analytical placement and maze routing implement the
   netlist;
4. eq. (3) evaluates the physical cost.

Every stage is wrapped: an unexpected failure surfaces as a
:class:`StageError` carrying the stage name and whatever partial results
exist, the analytical placer falls back to the annealing placer when it
diverges (non-finite objective or coordinates), routing retries once with
relaxed capacity, and per-stage wall times plus any fallbacks that fired
are recorded in ``AutoNcsResult.metadata``.

``AutoNCS.run_baseline`` runs the same physical flow on the brute-force
FullCro mapping, and ``AutoNCS.compare`` produces the Table 1 comparison;
the two flows draw from independent child generators so each is
reproducible in isolation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional, Tuple

import numpy as np

from repro.clustering.hierarchical import cluster_hierarchical
from repro.clustering.isc import IscResult, iterative_spectral_clustering
from repro.core.config import AutoNcsConfig
from repro.core.report import ComparisonReport
from repro.hardware.library import CrossbarLibrary
from repro.hardware.technology import Technology
from repro.mapping.autoncs_mapping import autoncs_mapping
from repro.mapping.fullcro import fullcro_mapping, fullcro_utilization
from repro.mapping.netlist import MappingResult
from repro.networks.connection_matrix import ConnectionMatrix
from repro.observability import get_recorder
from repro.physical.cost import evaluate_cost
from repro.physical.layout import PhysicalDesign, Placement
from repro.physical.placement.annealing import AnnealingConfig, anneal_place
from repro.physical.placement.placer import place
from repro.physical.routing.router import RoutingConfig, route
from repro.runtime.chaos import chaos_point
from repro.utils.rng import RngLike, ensure_rng, spawn_rng


class StageError(RuntimeError):
    """A pipeline stage failed.

    Attributes
    ----------
    stage:
        The stage name: ``"isc"``, ``"mapping"``, ``"placement"``,
        ``"routing"`` or ``"cost"``.
    partial:
        Whatever upstream results were already computed when the stage
        failed (e.g. the ISC result when mapping blows up) — enough to
        debug the failure without re-running the flow.
    """

    def __init__(self, stage: str, message: str, partial: Optional[dict] = None) -> None:
        super().__init__(f"AutoNCS stage '{stage}' failed: {message}")
        self.stage = stage
        self.partial = dict(partial) if partial else {}


#: Reduced-effort annealing schedule for the placement fallback path: the
#: fallback must terminate quickly even on designs that broke the
#: analytical placer.
FALLBACK_ANNEALING = AnnealingConfig(moves_per_temperature=150, temperatures=25)


def _require_connections(network: ConnectionMatrix, stage: str) -> None:
    """Fail fast on empty/all-zero inputs instead of deep inside scipy."""
    if not isinstance(network, ConnectionMatrix):
        raise TypeError(
            f"stage '{stage}': network must be a ConnectionMatrix, "
            f"got {type(network).__name__}"
        )
    if network.num_connections == 0:
        raise ValueError(
            f"stage '{stage}': network {network.name!r} is empty (all-zero "
            "connection matrix) — there is nothing to cluster or map"
        )


def _fresh_diagnostics() -> dict:
    return {"stage_seconds": {}, "fallbacks": []}


@contextmanager
def _stage(
    diagnostics: dict,
    key: str,
    span: str,
    partial: Optional[dict] = None,
    **attributes: Any,
) -> Iterator[None]:
    """Run one flow stage inside the span ``span``.

    The span is the stage's clock: on success its duration becomes
    ``diagnostics["stage_seconds"][key]``.  With ``partial`` given (a
    dict of upstream results, possibly empty), an exception escaping the
    stage surfaces as a :class:`StageError` named ``key`` carrying it;
    otherwise the exception propagates unchanged.
    """
    with get_recorder().span(span, **attributes) as record:
        try:
            yield
        except Exception as exc:
            if partial is None:
                raise
            raise StageError(key, f"{type(exc).__name__}: {exc}", partial=partial) from exc
    diagnostics["stage_seconds"][key] = record.duration


def _placement_divergence(placement: Placement) -> Optional[str]:
    """Reason string when a placement is unusable, else ``None``."""
    if not (np.all(np.isfinite(placement.x)) and np.all(np.isfinite(placement.y))):
        return "non-finite cell coordinates"
    for stage in placement.metadata.get("stages", []):
        objective = stage.get("objective", 0.0)
        if not np.isfinite(objective):
            return f"non-finite objective at lambda stage {stage.get('stage')}"
    return None


def _place_with_fallback(
    mapping: MappingResult,
    config: AutoNcsConfig,
    rng: np.random.Generator,
    diagnostics: dict,
) -> Placement:
    """Analytical placement, falling back to annealing on divergence.

    ``flow.place`` spans the analytical placer alone; the annealing
    fallback, when it runs, gets its own ``flow.place_fallback`` span.
    """
    placement: Optional[Placement] = None
    reason: Optional[str] = None
    cells = mapping.netlist.num_cells
    with _stage(diagnostics, "placement", "flow.place", cells=cells):
        try:
            chaos_point("stage.placement")
            placement = place(
                mapping.netlist,
                technology=config.technology,
                config=config.placement,
                rng=rng,
            )
            reason = _placement_divergence(placement)
        except Exception as exc:  # noqa: BLE001 - the fallback handles anything
            reason = f"analytical placer raised {type(exc).__name__}: {exc}"
    if reason is None:
        return placement
    diagnostics["fallbacks"].append(
        {"stage": "placement", "action": "annealing_placer", "reason": reason}
    )
    with _stage(diagnostics, "placement_fallback", "flow.place_fallback", cells=cells):
        try:
            placement = anneal_place(
                mapping.netlist,
                technology=config.technology,
                config=FALLBACK_ANNEALING,
                rng=rng,
            )
        except Exception as exc:
            raise StageError(
                "placement",
                f"analytical placer diverged ({reason}) and the annealing "
                f"fallback raised {type(exc).__name__}: {exc}",
                partial={"mapping": mapping},
            ) from exc
    fallback_reason = _placement_divergence(placement)
    if fallback_reason is not None:
        raise StageError(
            "placement",
            f"annealing fallback also diverged: {fallback_reason}",
            partial={"mapping": mapping, "placement": placement},
        )
    return placement


def _relaxed_routing(
    base: RoutingConfig, technology: Technology
) -> Tuple[RoutingConfig, Technology]:
    """``base`` and ``technology`` for the retry pass: double the edge
    capacity, and widen the search window and the relax and rip-up budgets."""
    config = replace(
        base,
        window_margin_bins=base.window_margin_bins + 8,
        max_relax_rounds=base.max_relax_rounds + 4,
        max_ripup_iterations=base.max_ripup_iterations + 8,
    )
    relaxed = replace(
        technology, routing_capacity_per_bin=technology.routing_capacity_per_bin * 2
    )
    return config, relaxed


def _route_with_retry(
    mapping: MappingResult,
    placement: Placement,
    config: AutoNcsConfig,
    diagnostics: dict,
):
    """Global routing, retried once with relaxed capacity on failure.

    ``flow.route`` spans the first attempt alone; the relaxed retry, when
    it runs, gets its own ``flow.route_retry`` span.
    """
    base = config.routing if config.routing is not None else RoutingConfig()
    wires = mapping.netlist.num_wires
    with _stage(diagnostics, "routing", "flow.route", wires=wires):
        try:
            chaos_point("stage.routing")
            routing = route(
                mapping.netlist, placement, technology=config.technology, config=base
            )
        except Exception as exc:
            routing = None
            reason = f"router raised {type(exc).__name__}: {exc}"
    if routing is not None:
        return routing
    diagnostics["fallbacks"].append(
        {"stage": "routing", "action": "relaxed_capacity_retry", "reason": reason}
    )
    relaxed_config, relaxed_technology = _relaxed_routing(base, config.technology)
    with _stage(diagnostics, "routing_retry", "flow.route_retry", wires=wires):
        try:
            routing = route(
                mapping.netlist,
                placement,
                technology=relaxed_technology,
                config=relaxed_config,
            )
        except Exception as exc:
            raise StageError(
                "routing",
                f"routing failed even with relaxed capacity ({reason}; retry "
                f"raised {type(exc).__name__}: {exc})",
                partial={"mapping": mapping, "placement": placement},
            ) from exc
    return routing


def _verify_design(design: PhysicalDesign, diagnostics: dict) -> None:
    """Run the independent verifier on a finished design (``verify=True``).

    Records the report summary and wall time in ``diagnostics`` before
    raising on failure, so a caught :class:`~repro.verify.VerificationError`
    still leaves the diagnostics trail complete.
    """
    # Imported here: repro.verify is the *consumer* of the flow's artifacts
    # and should stay importable without pulling the whole flow in reverse.
    from repro.verify import verify_flow

    with _stage(diagnostics, "verify", "flow.verify"):
        report = verify_flow(design)
    diagnostics["verification"] = report.summary()
    report.raise_if_failed()


@dataclass
class AutoNcsResult:
    """Everything the AutoNCS flow produced for one network.

    ``metadata`` carries the hardening diagnostics: ``stage_seconds`` maps
    each executed stage to its wall time and ``fallbacks`` lists every
    fallback that fired (placement annealing, routing relaxation).
    """

    isc: IscResult
    mapping: MappingResult
    design: PhysicalDesign
    metadata: dict = field(default_factory=dict)

    @property
    def stage_seconds(self) -> dict:
        """Wall time per executed stage (isc, mapping, placement, …)."""
        return self.design.stage_seconds

    def summary(self) -> dict:
        """Scalar summary: mapping stats plus physical cost."""
        summary = self.mapping.summary()
        summary.update(self.design.summary())
        summary["isc_iterations"] = self.isc.iterations
        summary["outlier_ratio"] = self.isc.outlier_ratio
        return summary

    def to_dict(self) -> dict:
        """JSON-compatible dict (the repo-wide result-object surface)."""
        return {
            **self.summary(),
            "stage_seconds": self.stage_seconds,
            "fallbacks": list(self.metadata.get("fallbacks", [])),
        }

    def format_table(self) -> str:
        """Aligned plain-text summary (the repo-wide result-object surface)."""
        data = self.to_dict()
        label = data.pop("design", "design")
        fallbacks = data.pop("fallbacks")
        stage_seconds = data.pop("stage_seconds")
        width = max(len(key) for key in data)
        lines = [f"AutoNCS result — {label}"]
        for key, value in data.items():
            if isinstance(value, float):
                rendered = f"{value:.4f}"
            else:
                rendered = str(value)
            lines.append(f"  {key:<{width}}  {rendered}")
        if stage_seconds:
            lines.append("  stage seconds:")
            for stage, seconds in stage_seconds.items():
                lines.append(f"    {stage:<{width}}  {seconds:.3f}")
        if fallbacks:
            lines.append(f"  fallbacks fired: {len(fallbacks)}")
        return "\n".join(lines)


def implement_mapping(
    mapping: MappingResult,
    config: AutoNcsConfig,
    rng: RngLike = None,
    diagnostics: Optional[dict] = None,
) -> PhysicalDesign:
    """Run placement, routing and cost evaluation on a mapped design.

    ``diagnostics`` (optional) is filled with per-stage wall times and any
    fallbacks that fired; the same information lands in the returned
    design's ``metadata["diagnostics"]``.
    """
    rng = ensure_rng(rng)
    if diagnostics is None:
        diagnostics = _fresh_diagnostics()
    diagnostics.setdefault("stage_seconds", {})
    diagnostics.setdefault("fallbacks", [])
    placement = _place_with_fallback(mapping, config, rng, diagnostics)
    routing = _route_with_retry(mapping, placement, config, diagnostics)
    partial = {"mapping": mapping, "placement": placement, "routing": routing}
    with _stage(diagnostics, "cost", "flow.evaluate", partial=partial):
        cost = evaluate_cost(
            mapping.netlist,
            placement,
            routing,
            technology=config.technology,
            weights=config.cost_weights,
        )
    return PhysicalDesign(
        mapping=mapping,
        placement=placement,
        routing=routing,
        cost=cost,
        metadata={"diagnostics": diagnostics},
    )


class AutoNCS:
    """The end-to-end EDA flow for hybrid memristor NCS designs.

    Example
    -------
    >>> from repro.networks import random_sparse_network
    >>> from repro.core import AutoNCS
    >>> net = random_sparse_network(80, 0.06, rng=7)
    >>> result = AutoNCS().run(net, rng=7)
    >>> result.isc.outlier_ratio <= 1.0
    True
    """

    def __init__(self, config: Optional[AutoNcsConfig] = None) -> None:
        self.config = config if config is not None else AutoNcsConfig()
        self.library = CrossbarLibrary(
            sizes=self.config.crossbar_sizes, technology=self.config.technology
        )

    # ------------------------------------------------------------------
    def cluster(self, network: ConnectionMatrix, rng: RngLike = None) -> IscResult:
        """Run the configured clustering driver (flat ISC or tiered).

        ``config.clustering`` picks the driver; the default (``"auto"``)
        runs the paper's flat ISC up to
        :data:`~repro.core.config.HIERARCHICAL_THRESHOLD` neurons — so all
        paper-scale results are untouched — and the tiered
        :func:`~repro.clustering.hierarchical.cluster_hierarchical` pass
        above it.
        """
        _require_connections(network, stage="isc")
        threshold = self.config.utilization_threshold
        if threshold is None:
            threshold = fullcro_utilization(network, self.library.max_size)
        if self.config.clustering_for(network.size) == "hierarchical":
            return cluster_hierarchical(
                network,
                sizes=self.config.crossbar_sizes,
                utilization_threshold=threshold,
                selection_quantile=self.config.selection_quantile,
                max_iterations=self.config.max_isc_iterations,
                tier_size=self.config.tier_size,
                rng=rng,
            )
        return iterative_spectral_clustering(
            network,
            sizes=self.config.crossbar_sizes,
            utilization_threshold=threshold,
            selection_quantile=self.config.selection_quantile,
            max_iterations=self.config.max_isc_iterations,
            rng=rng,
        )

    def run(
        self,
        network: ConnectionMatrix,
        rng: RngLike = None,
        verify: bool = False,
    ) -> AutoNcsResult:
        """Execute the full AutoNCS flow on ``network``.

        With ``verify=True`` the independent checker of :mod:`repro.verify`
        re-derives every flow invariant (coverage, hardware legality,
        physical legality, functional equivalence) from the artifacts; the
        report summary lands in ``result.metadata["verification"]`` and a
        failing report raises :class:`~repro.verify.VerificationError`.

        Raises
        ------
        ValueError
            When the network is empty/all-zero (fails fast, naming the
            stage, instead of crashing inside the spectral solver).
        StageError
            When a stage fails after its fallbacks are exhausted.
        repro.verify.VerificationError
            When ``verify=True`` and any check finds a violation.
        """
        rng = ensure_rng(rng)
        _require_connections(network, stage="isc")
        diagnostics = _fresh_diagnostics()
        recorder = get_recorder()
        with recorder.span(
            "flow.run", network=network.name, neurons=network.size
        ) as flow_span:
            with _stage(diagnostics, "isc", "flow.cluster", partial={}):
                chaos_point("stage.isc")
                isc = self.cluster(network, rng=rng)
            with _stage(diagnostics, "mapping", "flow.map", partial={"isc": isc}):
                chaos_point("stage.mapping")
                mapping = autoncs_mapping(isc, library=self.library)
            design = implement_mapping(
                mapping, self.config, rng=rng, diagnostics=diagnostics
            )
            result = AutoNcsResult(
                isc=isc, mapping=mapping, design=design, metadata=diagnostics
            )
            if verify:
                _verify_design(design, diagnostics)
            flow_span.annotate(
                isc_iterations=isc.iterations,
                outlier_ratio=isc.outlier_ratio,
                fallbacks=len(diagnostics.get("fallbacks", [])),
            )
        recorder.count("flow.runs")
        return result

    def run_baseline(
        self,
        network: ConnectionMatrix,
        rng: RngLike = None,
        verify: bool = False,
    ) -> PhysicalDesign:
        """Execute the physical flow on the FullCro brute-force mapping.

        ``verify=True`` behaves as in :meth:`run`; the report summary lands
        in ``design.metadata["diagnostics"]["verification"]``.
        """
        rng = ensure_rng(rng)
        diagnostics = _fresh_diagnostics()
        recorder = get_recorder()
        with recorder.span("flow.run_baseline", network=network.name):
            with _stage(diagnostics, "mapping", "flow.map", partial={}):
                mapping = fullcro_mapping(network, library=self.library)
            design = implement_mapping(
                mapping, self.config, rng=rng, diagnostics=diagnostics
            )
            if verify:
                _verify_design(design, diagnostics)
        recorder.count("flow.baseline_runs")
        return design

    def compare(
        self,
        network: ConnectionMatrix,
        label: Optional[str] = None,
        rng: RngLike = None,
    ) -> ComparisonReport:
        """Run both flows and report the Table 1 comparison.

        Each flow draws from its own child generator (spawned from ``rng``),
        so the FullCro baseline's placement no longer depends on how many
        draws the AutoNCS flow happened to consume — either side can be
        reproduced in isolation from the same parent seed.
        """
        autoncs_rng, fullcro_rng = spawn_rng(rng, 2)
        with get_recorder().span("flow.compare", network=network.name):
            result = self.run(network, rng=autoncs_rng)
            baseline = self.run_baseline(network, rng=fullcro_rng)
        return ComparisonReport(
            label=label if label is not None else network.name,
            autoncs=result.design,
            fullcro=baseline,
            metadata={"isc_iterations": result.isc.iterations,
                      "outlier_ratio": result.isc.outlier_ratio},
        )
