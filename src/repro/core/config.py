"""One configuration object for the complete AutoNCS flow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.clustering.isc import DEFAULT_SELECTION_QUANTILE
from repro.hardware.library import DEFAULT_CROSSBAR_SIZES, check_crossbar_sizes
from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.physical.cost import CostWeights
from repro.physical.placement.placer import PlacementConfig
from repro.physical.routing.router import RoutingConfig
from repro.utils.validation import check_whole_number

#: Network size above which :meth:`~repro.core.autoncs.AutoNCS.cluster`
#: switches from flat ISC to the tiered pass.
HIERARCHICAL_THRESHOLD = 4096


@dataclass
class AutoNcsConfig:
    """Every knob of the AutoNCS pipeline in one place.

    Attributes
    ----------
    crossbar_sizes:
        The crossbar library ``S`` (paper: 16..64 step 4).
    utilization_threshold:
        ISC stop threshold ``t``; ``None`` (default) uses the FullCro
        baseline utilization of the input network, as the paper's
        experiments do (Sec. 4.2).
    selection_quantile:
        Partial-selection quantile (0.75 → realize the top 25 % CP).
    max_isc_iterations:
        Safety cap on ISC iterations.
    technology:
        Physical technology model (45 nm default).
    placement / routing:
        Physical-design configurations; ``None`` uses defaults.
    cost_weights:
        The α/β/δ of eq. (3); the paper sets all to 1.
    """

    crossbar_sizes: Tuple[int, ...] = DEFAULT_CROSSBAR_SIZES
    utilization_threshold: Optional[float] = None
    selection_quantile: float = DEFAULT_SELECTION_QUANTILE
    max_isc_iterations: int = 50
    technology: Technology = field(default_factory=lambda: DEFAULT_TECHNOLOGY)
    placement: Optional[PlacementConfig] = None
    routing: Optional[RoutingConfig] = None
    cost_weights: CostWeights = field(default_factory=CostWeights)

    def __post_init__(self) -> None:
        self.crossbar_sizes = check_crossbar_sizes("crossbar_sizes", self.crossbar_sizes)
        # ``not x >= 0`` also rejects NaN, under which ISC would never stop.
        if self.utilization_threshold is not None and not self.utilization_threshold >= 0:
            raise ValueError(
                f"utilization_threshold must be >= 0 or None, got {self.utilization_threshold}"
            )
        if not 0.0 < self.selection_quantile < 1.0:
            raise ValueError("selection_quantile must lie in (0, 1)")
        self.max_isc_iterations = check_whole_number(
            "max_isc_iterations", self.max_isc_iterations
        )

    def cache_key(self) -> str:
        """A stable content hash over every knob of this configuration.

        Two configs with equal fields (including nested technology,
        placement, routing and cost-weight dataclasses) share a key; any
        differing knob changes it.  Used with
        :meth:`~repro.networks.connection_matrix.ConnectionMatrix.digest`
        to address cached flow results in :mod:`repro.runtime.cache`.
        """
        from repro.utils.canonical import stable_hash

        return stable_hash(self)


def fast_config() -> AutoNcsConfig:
    """A reduced-effort configuration for tests and quick demos."""
    return AutoNcsConfig(
        max_isc_iterations=10,
        placement=PlacementConfig(max_lambda_stages=5, cg_iterations_per_stage=15),
        routing=RoutingConfig(max_relax_rounds=3),
    )
