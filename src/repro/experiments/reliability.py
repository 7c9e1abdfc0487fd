"""The reliability experiment: yield vs defect rate on a paper testbench.

This is the Monte-Carlo counterpart of the Table 1 cost evaluation: instead
of asking "how cheap is the mapped design?", it asks "how many manufactured
chips of it still work, and how much does the fault-aware repair pass
recover?".  The experiment maps a (scaled) testbench with ISC, sweeps
defect rates, and evaluates functional yield before and after repair
through :func:`repro.reliability.evaluate_yield`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.autoncs import AutoNCS
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.mapping.autoncs_mapping import autoncs_mapping
from repro.reliability.yield_eval import YieldCurve, evaluate_yield
from repro.utils.rng import RngLike, spawn_rng

#: Default stuck-off cell-defect sweep (fractions of cells lost per chip).
#: Sparse Hopfield nets degrade gracefully, so the sweep reaches deep into
#: the defect range before raw (unrepaired) chips start failing.
DEFAULT_DEFECT_RATES: Tuple[float, ...] = (0.0, 0.2, 0.4)


@dataclass
class ReliabilityResult:
    """Outcome of one reliability experiment run."""

    label: str
    dimension: int
    num_crossbars: int
    num_synapses: int
    curve: YieldCurve
    metadata: dict = field(default_factory=dict)

    def format(self) -> str:
        """Printable experiment report."""
        lines = [
            f"reliability experiment — {self.label} "
            f"({self.num_crossbars} crossbars, {self.num_synapses} synapses)",
            self.curve.format_table(),
        ]
        return "\n".join(lines)


def run_reliability_experiment(
    testbench: int = 1,
    dimension: Optional[int] = None,
    defect_rates: Sequence[float] = DEFAULT_DEFECT_RATES,
    samples: int = 6,
    spare_instances: int = 2,
    recognition_threshold: float = 0.9,
    rng: RngLike = None,
    n_jobs: int = 1,
    events=None,
    resilience=None,
) -> ReliabilityResult:
    """Map a (scaled) testbench and Monte-Carlo its yield across defect rates.

    The defect-independent part — building the testbench, clustering it
    and mapping it onto the crossbar library — runs exactly once; only
    the Monte-Carlo trials (defect sampling + recall replay) repeat, and
    with ``n_jobs > 1`` they fan out over worker processes as
    :mod:`repro.runtime` jobs with bitwise-identical results.

    Parameters
    ----------
    testbench:
        Paper testbench index (1–3).
    dimension:
        Optional smaller network size N (the paper sparsity is kept); the
        full-size testbenches make the Monte-Carlo loop expensive.
    samples:
        Sampled chips (defect maps) per defect rate.
    spare_instances:
        Spare physical crossbars available to the repair pass.
    n_jobs:
        Worker processes for the Monte-Carlo trials.
    events:
        Optional :class:`repro.runtime.EventLog` for per-trial events.
    resilience:
        Optional :class:`~repro.runtime.resilience.ResilienceConfig`
        adding per-trial retries/timeouts (forwarded to
        :func:`~repro.reliability.evaluate_yield`).
    """
    build_rng, yield_rng = spawn_rng(rng, 2)
    bench = scaled_testbench(testbench, dimension)
    instance = build_testbench(bench, rng=build_rng)
    isc = AutoNCS().cluster(instance.network, rng=build_rng)
    mapping = autoncs_mapping(isc)
    curve = evaluate_yield(
        instance.hopfield,
        mapping,
        defect_rates=defect_rates,
        samples=samples,
        recognition_threshold=recognition_threshold,
        spare_instances=spare_instances,
        rng=yield_rng,
        n_jobs=n_jobs,
        events=events,
        resilience=resilience,
    )
    return ReliabilityResult(
        label=bench.label,
        dimension=bench.dimension,
        num_crossbars=mapping.num_crossbars,
        num_synapses=mapping.num_synapses,
        curve=curve,
        metadata={
            "outlier_ratio": isc.outlier_ratio,
            "utilization_threshold": isc.utilization_threshold,
            "samples": samples,
            "spare_instances": spare_instances,
            "n_jobs": n_jobs,
        },
    )
