"""``repro.bench`` — the machine-readable perf-regression harness.

Every future PR must be able to *prove* a speedup and *protect* it
against regression.  This module runs tagged micro/flow benchmarks under
the runtime :class:`~repro.runtime.runner.Runner`, records wall time +
QoR + observability counters for each, and emits schema-versioned JSON
trajectories (``BENCH_routing.json`` / ``BENCH_flow.json`` at the repo
root) that ``--check`` gates future runs against.

Suites
------
``routing``
    Micro-benchmarks of the global router in isolation: each scaled
    paper testbench is clustered, mapped and placed once, then routed
    with both algorithms (``ordered`` and ``negotiated``).  QoR is
    wirelength / overflow / rip-up statistics; counters are the maze
    search totals (heap pushes/pops, visited bins).
``flow``
    End-to-end ``AutoNCS.run`` on testbench 1 with both routing
    algorithms — wall time, per-stage seconds and the eq. (3) cost
    metrics — plus the chaos overhead records: ``chaos.null`` (resilient
    runner, no faults; the gate pins retries/faults/failures at zero)
    and ``chaos.transient`` (injected flakes; the gate pins full
    recovery).
``service``
    A load test of the mapping service (:mod:`repro.service`): an
    in-process HTTP server under a seeded ≥90 %-cache-hit request mix
    (:mod:`repro.service.loadtest`).  Records p50/p99 latency and
    throughput (machine-dependent, ungated by default) alongside the
    deterministic serving invariants the gate pins: the miss ratio
    (dedup must execute each unique flow exactly once), errors, and
    the flow/failure counters.  The profile is fixed — independent of
    ``--fast`` — so one committed baseline serves every CI lane
    (``mode="load"`` in the JSON).
``clustering``
    The large-scale clustering pipeline on a 50k-neuron scale-free
    network: sparse generation, the tiered
    :func:`~repro.clustering.hierarchical.cluster_hierarchical` pass,
    AutoNCS mapping, and independent coverage/hardware verification.
    QoR is the clustering quality the sparse redesign must hold
    (outlier ratio, crossbar count, coarse-cut ratio, verification
    failures pinned at zero); wall time is recorded per stage and only
    gated under ``--time-threshold``.  Like ``service`` the profile is
    fixed — ``--fast`` is ignored and one committed baseline
    (``mode="scale"``) serves every lane; ``--dimension`` still
    overrides for local iteration (the gate rejects mismatched runs).

Regression policy
-----------------
All gated metrics are lower-is-better.  A candidate metric regresses
when it exceeds ``baseline · (1 + threshold/100) + atol`` (small
per-metric absolute slack absorbs benign cross-platform drift, see
``_ATOL``).  Wall time is machine-dependent and is only gated when an
explicit ``--time-threshold`` is passed; the same policy covers
latency/seconds-named QoR metrics, and throughput-style metrics
(higher-is-better, machine-dependent) are recorded but never gated —
see :func:`metric_gate`.  QoR and counters outside those classes are
deterministic for a fixed seed and are gated by default.  Refresh the
committed baselines intentionally with ``--update-baseline`` (the
``--update-golden`` of the perf layer) and commit the diff.

Entry points: ``python -m repro bench`` and ``python benchmarks/harness.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Bump when the BENCH_*.json layout changes incompatibly.
SCHEMA_VERSION = 1

#: The known suites, in run order.
SUITES = ("routing", "flow", "service", "clustering")

#: suite -> committed baseline file name (repo root).
BASELINE_FILES = {suite: f"BENCH_{suite}.json" for suite in SUITES}

#: Default regression threshold (percent) for QoR metrics and counters.
DEFAULT_THRESHOLD_PCT = 20.0

#: Suite-default testbench dimensions: CI smoke vs full trajectory.
FAST_DIMENSION = 64
FULL_DIMENSION = 120

#: Absolute slack per metric name — integer-ish metrics that legitimately
#: wobble by a few units across platforms (eigensolver/BLAS drift moves
#: the placement slightly, which moves routing decisions).
_ATOL = {
    "overflow_wires": 2.0,
    "relax_rounds": 1.0,
    "ripup_iterations": 2.0,
    "ripups": 48.0,
    "routing.maze_searches": 16.0,
}

#: The ``service`` suite's fixed load profile.  Deliberately independent
#: of ``--fast``: latency percentiles need enough samples to be
#: meaningful, and one profile means one committed baseline for every
#: lane (the suite's JSON carries ``mode="load"``).
SERVICE_MODE = "load"
SERVICE_REQUESTS = 1200
SERVICE_CLIENTS = 16
SERVICE_UNIQUE_JOBS = 8
SERVICE_WORKERS = 4

#: Largest network in the service mix (doubles as the suite dimension).
SERVICE_DIMENSION = 16 + 2 * (SERVICE_UNIQUE_JOBS - 1)

#: The ``clustering`` suite's fixed scale profile.  Also independent of
#: ``--fast``: the suite exists to prove the sparse-first network core
#: holds at a scale the dense path cannot reach, and one profile means
#: one committed baseline (``mode="scale"`` in the JSON).
CLUSTERING_MODE = "scale"
CLUSTERING_DIMENSION = 50_000
CLUSTERING_ATTACHMENT = 2  # Barabási–Albert edges-per-new-neuron


def metric_gate(name: str) -> str:
    """Gate class of a QoR/counter metric: ``always``/``time``/``never``.

    ``time`` metrics (wall-clock-like: a name containing ``seconds`` or
    ``latency``) are machine-dependent and only gate under an explicit
    ``--time-threshold``; ``never`` metrics (``throughput``/``rps``/
    ``per_second``) are higher-is-better *and* machine-dependent, so
    they are recorded for trend reading but never gated.  Everything
    else gates at the default threshold.
    """
    lowered = name.lower()
    if any(
        marker in lowered
        for marker in ("throughput", "rps", "per_second")
    ):
        return "never"
    if any(marker in lowered for marker in ("seconds", "latency")):
        return "time"
    return "always"


@dataclass
class BenchRecord:
    """One benchmark's measurements: wall time, QoR and counters."""

    name: str
    tags: List[str]
    wall_seconds: float
    qor: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteResult:
    """One suite's full run, ready to serialize as ``BENCH_<suite>.json``."""

    suite: str
    mode: str  # "fast" | "full"
    seed: int
    dimension: int
    package_version: str
    benchmarks: List[BenchRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "mode": self.mode,
            "seed": self.seed,
            "dimension": self.dimension,
            "package_version": self.package_version,
            "benchmarks": [record.to_dict() for record in self.benchmarks],
        }

    def format_table(self) -> str:
        """Aligned plain-text summary (the repo-wide result-object surface)."""
        lines = [
            f"bench suite {self.suite!r} — mode={self.mode} seed={self.seed} "
            f"dimension={self.dimension}"
        ]
        width = max((len(r.name) for r in self.benchmarks), default=4)
        for record in self.benchmarks:
            qor = "  ".join(
                f"{k}={v:,.1f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in record.qor.items()
            )
            lines.append(
                f"  {record.name:<{width}}  {record.wall_seconds:8.3f}s  {qor}"
            )
        return "\n".join(lines)


def suite_result_from_dict(payload: dict) -> SuiteResult:
    """Rebuild a :class:`SuiteResult` from a ``BENCH_*.json`` payload.

    Raises ``ValueError`` on schema mismatches, so consumers fail loudly
    instead of silently comparing incompatible trajectories.
    """
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench schema_version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    for key in ("suite", "mode", "seed", "dimension", "benchmarks"):
        if key not in payload:
            raise ValueError(f"bench payload is missing the {key!r} field")
    return SuiteResult(
        suite=str(payload["suite"]),
        mode=str(payload["mode"]),
        seed=int(payload["seed"]),
        dimension=int(payload["dimension"]),
        package_version=str(payload.get("package_version", "")),
        benchmarks=[
            BenchRecord(
                name=str(entry["name"]),
                tags=[str(tag) for tag in entry.get("tags", [])],
                wall_seconds=float(entry["wall_seconds"]),
                qor={k: float(v) for k, v in entry.get("qor", {}).items()},
                counters={k: float(v) for k, v in entry.get("counters", {}).items()},
            )
            for entry in payload["benchmarks"]
        ],
    )


def write_suite_json(result: SuiteResult, path: Path) -> None:
    """Serialize one suite to ``path`` (stable key order, trailing newline)."""
    path.write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_suite_json(path: Path) -> SuiteResult:
    """Load and schema-validate one ``BENCH_*.json`` file."""
    return suite_result_from_dict(json.loads(path.read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# Benchmark executors (module-level: they run as runtime Runner jobs)
# ----------------------------------------------------------------------
def _counters_of(snapshot, prefix: str = "routing.") -> Dict[str, float]:
    return {
        name: float(value)
        for name, value in snapshot.counters.items()
        if name.startswith(prefix)
    }


def _bench_routing_case(rng, *, netlist, placement, technology, algorithm):
    """Route one placed netlist with ``algorithm``; return measurements."""
    from repro.observability import Recorder, recording
    from repro.physical.routing.router import RoutingConfig, route

    recorder = Recorder()
    with recording(recorder):
        result = route(
            netlist,
            placement,
            technology=technology,
            config=RoutingConfig(algorithm=algorithm),
        )
    return {
        "qor": {
            "wirelength_um": result.total_wirelength_um,
            "overflow_wires": float(result.overflow_wires),
            "relax_rounds": float(result.relax_rounds),
            "ripup_iterations": float(result.ripup_iterations),
            "ripups": float(result.ripups),
        },
        "counters": _counters_of(recorder.snapshot()),
    }


def _bench_flow_case(rng, *, network, config):
    """Run the full AutoNCS flow; return cost + counters."""
    from repro.core.autoncs import AutoNCS
    from repro.observability import Recorder, recording

    recorder = Recorder()
    with recording(recorder):
        result = AutoNCS(config).run(network, rng=rng)
    cost = result.design.cost
    return {
        "qor": {
            "wirelength_um": cost.wirelength_um,
            "area_um2": cost.area_um2,
            "delay_ns": cost.average_delay_ns,
            "overflow_wires": float(result.design.routing.overflow_wires),
        },
        "counters": _counters_of(recorder.snapshot()),
    }


def _bench_chaos_unit(rng, *, n):
    """Cheap deterministic unit job for the chaos benchmarks (O(n) numpy)."""
    values = rng.standard_normal(int(n))
    return float(np.abs(values).sum())


def _bench_chaos_case(rng, *, plan_spec, seed, cells):
    """Run ``cells`` cheap jobs through a resilient inner runner.

    ``plan_spec`` is a :meth:`~repro.runtime.chaos.FaultPlan.parse` spec
    (empty = chaos off).  QoR is the retry/fault/failure accounting — all
    deterministic for a fixed seed, so the regression gate pins them: the
    ``chaos.null`` record must keep zero retries, faults and failures
    (the null-plan zero-overhead contract), and ``chaos.transient`` must
    keep recovering every injected flake.
    """
    from repro.observability import Recorder, recording
    from repro.runtime import FaultPlan, Job, ResilienceConfig, RetryPolicy, Runner

    plan = FaultPlan.parse(plan_spec, seed=seed) if plan_spec else None
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_max=0.002),
        timeout_seconds=60.0,
    )
    jobs = [
        Job(kind="bench_chaos_unit", label=f"unit-{index}",
            payload={"n": 4096}, seed=seed * 1000 + index)
        for index in range(cells)
    ]
    recorder = Recorder()
    with recording(recorder):
        results = Runner(resilience=resilience, chaos=plan).run(jobs)
    snapshot = recorder.snapshot()
    counters = {
        name: float(value)
        for name, value in snapshot.counters.items()
        if name.startswith(("runner.", "chaos."))
    }
    return {
        "qor": {
            "failures": counters.get("runner.failures", 0.0),
            "retries": counters.get("runner.retries", 0.0),
            "faults_injected": counters.get("chaos.faults_injected", 0.0),
            "checksum": float(
                sum(r.value for r in results if r.value is not None)
            ),
        },
        "counters": counters,
    }


def _run_service_suite(seed: int) -> "SuiteResult":
    """The ``service`` suite: an in-process server under the fixed mix.

    The request mix is ``SERVICE_REQUESTS`` submissions cycling over
    ``SERVICE_UNIQUE_JOBS`` distinct tiny flows from
    ``SERVICE_CLIENTS`` threads — so the dedup/cache layer should
    execute each unique flow exactly once (the gated ``miss_ratio``)
    and serve everything else from the coalescer or the artifact cache.
    Runs against a throwaway cache so results never leak between runs.
    """
    import tempfile

    import repro
    from repro.observability import get_recorder
    from repro.service import ServiceConfig, ServiceServer
    from repro.service.loadtest import default_payloads, run_load

    result = SuiteResult(
        suite="service",
        mode=SERVICE_MODE,
        seed=seed,
        dimension=SERVICE_DIMENSION,
        package_version=repro.__version__,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        config = ServiceConfig(
            workers=SERVICE_WORKERS,
            max_queue=max(64, SERVICE_UNIQUE_JOBS * 4),
            cache_dir=Path(tmp) / "cache",
        )
        with ServiceServer(config) as server:
            with get_recorder().span("bench.service.load") as span:
                report = run_load(
                    server.url,
                    requests=SERVICE_REQUESTS,
                    clients=SERVICE_CLIENTS,
                    payloads=default_payloads(SERVICE_UNIQUE_JOBS, seed=seed),
                )
            metrics = server.service.metrics
            executed = metrics.counter("jobs_executed")
            failed = metrics.counter("failed")
    result.benchmarks.append(
        BenchRecord(
            name="service.load",
            tags=["service", "load", "http"],
            wall_seconds=span.duration,
            qor={
                "requests": float(report.requests),
                "errors": float(report.errors),
                "miss_ratio": executed / max(1, report.requests),
                "p50_latency_seconds": report.p50_seconds,
                "p99_latency_seconds": report.p99_seconds,
                "throughput_rps": report.throughput_rps,
            },
            counters={
                "service.jobs_executed": float(executed),
                "service.failed": float(failed),
                "service.rejected": float(report.rejected),
            },
        )
    )
    return result


def _run_clustering_suite(seed: int, dimension: Optional[int] = None) -> "SuiteResult":
    """The ``clustering`` suite: sparse 50k pipeline, stage by stage.

    Runs in-process (no runtime Runner): the stages feed each other a
    50k-neuron sparse network and its clustering, which have no business
    crossing a process-pool pickle boundary.  Each stage is timed
    separately so the trajectory shows *where* scale regressions land
    (generation vs clustering vs mapping vs verification).
    """
    import repro
    from repro.core.autoncs import AutoNCS
    from repro.mapping.autoncs_mapping import autoncs_mapping
    from repro.networks import scale_free_network
    from repro.observability import Recorder, recording
    from repro.verify.verifier import verify_mapping

    n = dimension or CLUSTERING_DIMENSION
    result = SuiteResult(
        suite="clustering",
        mode=CLUSTERING_MODE,
        seed=seed,
        dimension=n,
        package_version=repro.__version__,
    )
    flow = AutoNCS()
    recorder = Recorder()
    with recording(recorder):
        with recorder.span("bench.scale.generate") as span:
            network = scale_free_network(n, CLUSTERING_ATTACHMENT, rng=seed)
        result.benchmarks.append(
            BenchRecord(
                name="scale.generate",
                tags=["clustering", "generate", "scale-free"],
                wall_seconds=span.duration,
                qor={
                    "neurons": float(network.size),
                    "connections": float(network.num_connections),
                    "dense_backend": 0.0 if network.backend == "sparse" else 1.0,
                },
            )
        )
        with recorder.span("bench.scale.cluster") as span:
            isc = flow.cluster(network, rng=np.random.default_rng(seed))
        result.benchmarks.append(
            BenchRecord(
                name="scale.cluster",
                tags=["clustering", "hierarchical", "isc"],
                wall_seconds=span.duration,
                qor={
                    "crossbars": float(len(isc.crossbars)),
                    "outlier_ratio": isc.outlier_ratio,
                    "cut_ratio": float(isc.metadata.get("cut_ratio", 0.0)),
                    "tiers": float(isc.metadata.get("tiers", 1)),
                },
                counters={
                    name: float(value)
                    for name, value in recorder.snapshot().counters.items()
                    if name.startswith("hierarchical.")
                },
            )
        )
        with recorder.span("bench.scale.map") as span:
            mapping = autoncs_mapping(isc, library=flow.library)
        result.benchmarks.append(
            BenchRecord(
                name="scale.map",
                tags=["clustering", "mapping"],
                wall_seconds=span.duration,
                qor={
                    "crossbar_instances": float(mapping.num_crossbars),
                    "discrete_synapses": float(mapping.num_synapses),
                    "netlist_cells": float(len(mapping.netlist.cells)),
                },
            )
        )
        with recorder.span("bench.scale.verify") as span:
            report = verify_mapping(mapping, checks=("coverage", "hardware"))
        result.benchmarks.append(
            BenchRecord(
                name="scale.verify",
                tags=["clustering", "verify"],
                wall_seconds=span.duration,
                qor={
                    # The gate pins these at zero: the 50k design must
                    # keep verifying clean.
                    "failed_checks": float(
                        sum(1 for c in report.checks if c.status == "fail")
                    ),
                    "violations": float(len(report.violations)),
                },
            )
        )
    return result


def _register_executors() -> None:
    from repro.runtime import register_executor

    register_executor("bench_routing", _bench_routing_case)
    register_executor("bench_flow", _bench_flow_case)
    register_executor("bench_chaos", _bench_chaos_case)
    register_executor("bench_chaos_unit", _bench_chaos_unit)


# ----------------------------------------------------------------------
# Suite drivers
# ----------------------------------------------------------------------
def _placed_testbench(index: int, dimension: int, seed: int):
    """Cluster, map and place one scaled testbench (shared across cases)."""
    from repro.core.autoncs import AutoNCS
    from repro.experiments.testbenches import build_testbench, scaled_testbench
    from repro.mapping.autoncs_mapping import autoncs_mapping
    from repro.physical.placement.placer import place

    flow = AutoNCS()
    instance = build_testbench(scaled_testbench(index, dimension), rng=seed)
    isc = flow.cluster(instance.network, rng=np.random.default_rng(seed))
    mapping = autoncs_mapping(isc, library=flow.library)
    placement = place(
        mapping.netlist,
        technology=flow.config.technology,
        rng=np.random.default_rng(seed),
    )
    return instance.network, mapping.netlist, placement, flow.config.technology


def run_suite(
    suite: str,
    *,
    fast: bool = False,
    seed: int = 42,
    jobs: int = 1,
    dimension: Optional[int] = None,
    testbenches: Sequence[int] = (1, 2, 3),
    resilience=None,
) -> SuiteResult:
    """Run one benchmark suite and return its :class:`SuiteResult`.

    ``dimension`` overrides the suite-default scaled-testbench size
    (useful for tests and quick local iteration); ``testbenches``
    narrows the paper testbenches covered.
    """
    import repro
    from repro.runtime import Job, Runner

    if suite not in SUITES:
        raise ValueError(f"unknown bench suite {suite!r} (known: {SUITES})")
    if suite == "service":
        # Fixed load profile, deliberately ignoring fast/dimension/
        # testbenches — see the module docs.
        return _run_service_suite(seed)
    if suite == "clustering":
        # Fixed scale profile (ignores --fast); --dimension still
        # overrides for local iteration and the harness tests.
        return _run_clustering_suite(seed, dimension=dimension)
    _register_executors()
    mode = "fast" if fast else "full"
    dim = dimension if dimension else (FAST_DIMENSION if fast else FULL_DIMENSION)
    result = SuiteResult(
        suite=suite,
        mode=mode,
        seed=seed,
        dimension=dim,
        package_version=repro.__version__,
    )
    jobs_list: List[Job] = []
    names: List[Tuple[str, List[str]]] = []
    if suite == "routing":
        for index in testbenches:
            network, netlist, placement, technology = _placed_testbench(
                index, dim, seed
            )
            for algorithm in ("ordered", "negotiated"):
                payload = {
                    "netlist": netlist,
                    "placement": placement,
                    "technology": technology,
                    "algorithm": algorithm,
                }
                jobs_list.append(
                    Job(
                        kind="bench_routing",
                        label=f"route tb{index} {algorithm}",
                        payload=payload,
                        seed=seed,
                    )
                )
                names.append(
                    (f"tb{index}.{algorithm}", ["routing", algorithm, f"tb{index}"])
                )
    else:  # flow
        from repro.core.config import AutoNcsConfig
        from repro.experiments.testbenches import build_testbench, scaled_testbench
        from repro.physical.routing.router import RoutingConfig

        index = min(testbenches)
        instance = build_testbench(scaled_testbench(index, dim), rng=seed)
        for algorithm in ("ordered", "negotiated"):
            config = AutoNcsConfig(routing=RoutingConfig(algorithm=algorithm))
            jobs_list.append(
                Job(
                    kind="bench_flow",
                    label=f"flow tb{index} {algorithm}",
                    payload={"network": instance.network, "config": config},
                    seed=seed,
                )
            )
            names.append(
                (f"flow.tb{index}.{algorithm}", ["flow", algorithm, f"tb{index}"])
            )
        # The resilience overhead benchmarks: the same cheap job grid
        # with chaos off (pins the null-plan overhead at zero retries/
        # faults) and with transient flakes (pins full recovery).
        for name, plan_spec in (("chaos.null", ""), ("chaos.transient", "transient")):
            jobs_list.append(
                Job(
                    kind="bench_chaos",
                    label=f"bench {name}",
                    payload={"plan_spec": plan_spec, "seed": seed, "cells": 16},
                    seed=seed,
                )
            )
            names.append((name, ["chaos", name.split(".", 1)[1]]))
    outcomes = Runner(n_jobs=jobs, resilience=resilience).run(jobs_list)
    for (name, tags), outcome in zip(names, outcomes):
        if outcome.failure is not None:
            raise RuntimeError(
                f"benchmark {name!r} failed ({outcome.failure.failure}): "
                f"{outcome.failure.message}"
            )
        measurement = outcome.value
        result.benchmarks.append(
            BenchRecord(
                name=name,
                tags=tags,
                wall_seconds=outcome.seconds,
                qor=measurement["qor"],
                counters=measurement["counters"],
            )
        )
    return result


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def compare_to_baseline(
    candidate: SuiteResult,
    baseline: SuiteResult,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    time_threshold_pct: Optional[float] = None,
) -> List[str]:
    """All regressions of ``candidate`` vs ``baseline`` as human messages.

    An empty list means the gate passes.  Metrics are lower-is-better:
    a regression is ``candidate > baseline · (1 + threshold/100) + atol``.
    New benchmarks in the candidate pass (there is nothing to compare);
    benchmarks missing from the candidate fail (silent coverage loss).
    """
    failures: List[str] = []
    if candidate.suite != baseline.suite:
        return [
            f"suite mismatch: candidate {candidate.suite!r} vs "
            f"baseline {baseline.suite!r}"
        ]
    if candidate.mode != baseline.mode or candidate.dimension != baseline.dimension:
        return [
            f"run parameters differ from the baseline (mode/dimension "
            f"{candidate.mode}/{candidate.dimension} vs "
            f"{baseline.mode}/{baseline.dimension}) — rerun with matching "
            "flags or refresh the baseline with --update-baseline"
        ]
    by_name = {record.name: record for record in candidate.benchmarks}
    for base in baseline.benchmarks:
        mine = by_name.get(base.name)
        if mine is None:
            failures.append(f"{base.name}: benchmark disappeared from the run")
            continue
        gated = [
            (metric, base.qor.get(metric), mine.qor.get(metric))
            for metric in base.qor
        ] + [
            (metric, base.counters.get(metric), mine.counters.get(metric))
            for metric in base.counters
        ]
        for metric, old, new in gated:
            if new is None:
                failures.append(f"{base.name}: metric {metric!r} disappeared")
                continue
            gate = metric_gate(metric)
            if gate == "never":
                continue
            if gate == "time":
                if time_threshold_pct is None:
                    continue
                pct = time_threshold_pct
            else:
                pct = threshold_pct
            limit = old * (1.0 + pct / 100.0) + _ATOL.get(metric, 0.0)
            if new > limit:
                failures.append(
                    f"{base.name}: {metric} regressed {old:,.2f} → {new:,.2f} "
                    f"(limit {limit:,.2f} at +{pct:g}%)"
                )
        if time_threshold_pct is not None:
            limit = base.wall_seconds * (1.0 + time_threshold_pct / 100.0)
            if mine.wall_seconds > limit:
                failures.append(
                    f"{base.name}: wall_seconds regressed "
                    f"{base.wall_seconds:.3f} → {mine.wall_seconds:.3f} "
                    f"(limit {limit:.3f} at +{time_threshold_pct:g}%)"
                )
    return failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``bench`` argument surface (shared by CLI and harness script)."""
    parser.add_argument("--suites", nargs="+", choices=SUITES, default=list(SUITES),
                        help="benchmark suites to run (default: all)")
    parser.add_argument("--fast", action="store_true",
                        help="reduced-scale CI smoke mode (smaller testbenches)")
    parser.add_argument("--seed", type=int, default=42,
                        help="benchmark seed (default 42)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="runtime worker processes (default 1)")
    parser.add_argument("--dimension", type=int, default=0,
                        help="override the scaled-testbench size "
                             "(0 = suite default)")
    parser.add_argument("--testbenches", type=int, nargs="+", default=[1, 2, 3],
                        choices=(1, 2, 3),
                        help="paper testbenches to cover (default 1 2 3)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="max attempts per benchmark job (default 1)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-benchmark wall-clock budget (default: none)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed BENCH_*.json "
                             "baselines and exit 1 on regression (read-only)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the BENCH_*.json baselines with this "
                             "run's numbers (the --update-golden of perf)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_PCT,
                        help="QoR/counter regression threshold in percent "
                             f"(default {DEFAULT_THRESHOLD_PCT:g})")
    parser.add_argument("--time-threshold", type=float, default=None,
                        help="also gate wall time at this percent threshold "
                             "(default: wall time not gated — machines differ)")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding the committed BENCH_*.json "
                             "baselines (default: current directory)")
    parser.add_argument("--output-dir", default=None,
                        help="where to write this run's BENCH_*.json files "
                             "(default: baseline dir; with --check: nowhere)")


def run_bench_command(args: argparse.Namespace) -> int:
    """Execute the ``bench`` command; returns the process exit status."""
    if args.check and args.update_baseline:
        print("error: --check and --update-baseline are mutually exclusive",
              file=sys.stderr)
        return 2
    baseline_dir = Path(args.baseline_dir)
    output_dir = Path(args.output_dir) if args.output_dir else None
    resilience = None
    if max(1, args.retries) > 1 or args.timeout is not None:
        from repro.runtime import ResilienceConfig, RetryPolicy

        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=max(1, args.retries)),
            timeout_seconds=args.timeout,
            fail_fast=True,
        )
    exit_status = 0
    for suite in args.suites:
        result = run_suite(
            suite,
            fast=args.fast,
            seed=args.seed,
            jobs=args.jobs,
            dimension=args.dimension or None,
            testbenches=tuple(args.testbenches),
            resilience=resilience,
        )
        print(result.format_table())
        baseline_path = baseline_dir / BASELINE_FILES[suite]
        if args.check:
            if not baseline_path.exists():
                print(f"FAIL {suite}: no baseline at {baseline_path} — "
                      "create one with `python -m repro bench --update-baseline`")
                exit_status = 1
            else:
                try:
                    baseline = load_suite_json(baseline_path)
                except ValueError as exc:
                    print(f"FAIL {suite}: unreadable baseline: {exc}")
                    exit_status = 1
                else:
                    failures = compare_to_baseline(
                        result, baseline,
                        threshold_pct=args.threshold,
                        time_threshold_pct=args.time_threshold,
                    )
                    if failures:
                        exit_status = 1
                        print(f"FAIL {suite}: {len(failures)} regression(s) "
                              f"vs {baseline_path}:")
                        for failure in failures:
                            print(f"  - {failure}")
                    else:
                        print(f"OK {suite}: no regression vs {baseline_path}")
            if output_dir is not None:
                output_dir.mkdir(parents=True, exist_ok=True)
                write_suite_json(result, output_dir / BASELINE_FILES[suite])
        else:
            target_dir = output_dir if output_dir is not None else baseline_dir
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / BASELINE_FILES[suite]
            write_suite_json(result, target)
            print(f"wrote {target}")
    return exit_status


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python benchmarks/harness.py``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="machine-readable perf harness: run tagged benchmarks, "
                    "emit BENCH_*.json, gate regressions",
    )
    add_bench_arguments(parser)
    return run_bench_command(parser.parse_args(argv))
