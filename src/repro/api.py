"""The stable public API of :mod:`repro`.

Four functions cover the common uses of the framework, re-exported at
the package top level::

    import repro
    from repro import FlowOptions

    network = repro.load_network("net.npz")
    result = repro.map_network(network, options=FlowOptions(seed=42))
    report = repro.compare(network, options=FlowOptions(seed=42))
    check  = repro.verify(result)

All flow settings live in one documented :class:`FlowOptions` dataclass,
so every entry point shares a single configuration surface and the
runtime cache can key on ``options.cache_key()`` together with
``network.digest()``.

Return types are the documented result dataclasses
(:class:`~repro.core.autoncs.AutoNcsResult`,
:class:`~repro.core.report.ComparisonReport`,
:class:`~repro.verify.report.VerificationReport`) — each carries
``.to_dict()`` for machine consumption and ``.format_table()`` for
terminal output.

Observability composes orthogonally: install a recorder around any call
to collect a trace and metrics::

    from repro import Recorder, recording, write_chrome_trace

    rec = Recorder()
    with recording(rec):
        repro.compare(network, options=FlowOptions(seed=42))
    write_chrome_trace(rec.tracer.spans, "trace.jsonl")

Deep imports (``from repro.core import AutoNCS``) remain supported for
advanced use; the facade is the stable subset covered by the public-API
snapshot test (``tests/test_public_api.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.autoncs import AutoNCS, AutoNcsResult
from repro.core.config import AutoNcsConfig
from repro.core.report import ComparisonReport
from repro.mapping.netlist import MappingResult
from repro.networks.connection_matrix import ConnectionMatrix
from repro.physical.layout import PhysicalDesign
from repro.utils.rng import RngLike
from repro.verify.report import VerificationReport

__all__ = ["FlowOptions", "compare", "load_network", "map_network", "verify"]


@dataclass
class FlowOptions:
    """Every per-call knob of the public API in one place.

    One options object serves all entry points; each function reads the
    fields relevant to it and ignores the rest, so a single
    ``FlowOptions`` can drive ``map_network`` → ``verify`` → ``compare``
    on the same network.

    Attributes
    ----------
    config:
        Flow configuration; ``None`` means the paper defaults
        (:class:`~repro.core.config.AutoNcsConfig`; see also
        :func:`~repro.core.config.fast_config`).  Clustering scale-up,
        routing algorithm, technology — everything pipeline-level —
        lives here.
    seed:
        RNG seed material (int, :class:`numpy.random.Generator` or
        ``None`` for nondeterministic).
    verify:
        ``map_network`` only: run the independent end-to-end verifier on
        the finished design and raise
        :class:`~repro.verify.VerificationError` on violation.
    baseline:
        ``verify`` only: when the target is a network, run the FullCro
        baseline flow instead of AutoNCS before checking.
    checks:
        ``verify`` only: subset of check names to run (``"coverage"``,
        ``"hardware"``, ``"physical"``, ``"functional"``); ``None`` runs
        all.  Large-network flows typically restrict to
        ``("coverage", "hardware")`` — the functional check simulates a
        dense ``n × n`` weight matrix.
    hopfield:
        ``verify`` only: optional :class:`~repro.networks.hopfield.
        HopfieldNetwork` enabling the Hopfield-recall functional check.
    n_jobs:
        ``compare`` only: ``> 1`` runs the two flows on worker processes
        through the runtime engine.  Results are identical for any
        value (child seeds are replayed).
    label:
        ``compare`` only: report label (defaults to the network name).
    resilience:
        ``compare`` only: optional :class:`~repro.runtime.resilience.
        ResilienceConfig` adding per-flow retries and timeouts.
    """

    config: Optional[AutoNcsConfig] = None
    seed: RngLike = None
    verify: bool = False
    baseline: bool = False
    checks: Optional[Tuple[str, ...]] = None
    hopfield: Optional[object] = None
    n_jobs: int = 1
    label: Optional[str] = None
    resilience: Optional[object] = None

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.checks is not None:
            self.checks = tuple(str(c) for c in self.checks)

    def resolved_config(self) -> AutoNcsConfig:
        """The effective :class:`AutoNcsConfig` (defaults when unset)."""
        return self.config if self.config is not None else AutoNcsConfig()

    def cache_key(self) -> str:
        """A stable content hash over the **result-determining** fields.

        Covers ``config`` (via its own :meth:`~repro.core.config.
        AutoNcsConfig.cache_key`), ``seed``, ``verify``, ``baseline`` and
        ``checks``.  Excluded by design: ``n_jobs`` and ``resilience``
        (execution strategy — results are seed-reproducible regardless),
        ``label`` (cosmetic) and ``hopfield`` (an in-memory object whose
        influence is already captured by the functional-check flag in
        ``checks``).  Combine with :meth:`~repro.networks.
        connection_matrix.ConnectionMatrix.digest` to address cached flow
        results.
        """
        from repro.utils.canonical import stable_hash

        seed = self.seed
        if seed is not None and not isinstance(seed, int):
            # A live Generator has no stable content identity; callers
            # wanting cache hits should pass int seeds.
            seed = f"generator:{id(seed)}"
        return stable_hash(
            {
                "config": self.resolved_config().cache_key(),
                "seed": seed,
                "verify": self.verify,
                "baseline": self.baseline,
                "checks": self.checks,
            }
        )


def load_network(
    path: Union[str, "os.PathLike[str]"],
    name: Optional[str] = None,
) -> ConnectionMatrix:
    """Load a :class:`ConnectionMatrix` from disk.

    ``.npz`` archives (dense or sparse layout, see
    :mod:`repro.networks.io`) load by extension; anything else is parsed
    as an edge-list text file.  ``name`` overrides the stored network
    name when given.
    """
    from repro.networks.io import load_network_edgelist, load_network_npz

    if str(path).endswith(".npz"):
        network = load_network_npz(path)
    else:
        network = load_network_edgelist(path)
    if name is not None:
        network = network.copy(name=name)
    return network


def map_network(
    network: ConnectionMatrix,
    *,
    options: Optional[FlowOptions] = None,
) -> AutoNcsResult:
    """Run the full AutoNCS flow (ISC → mapping → placement → routing).

    Parameters
    ----------
    network:
        The connection matrix to implement.
    options:
        All flow settings (see :class:`FlowOptions`); relevant fields are
        ``config``, ``seed`` and ``verify``.

    Returns
    -------
    AutoNcsResult
        ISC result, hybrid mapping and physical design, with per-stage
        diagnostics in ``metadata`` and the ``.to_dict()`` /
        ``.format_table()`` result surface.
    """
    opts = options if options is not None else FlowOptions()
    return AutoNCS(opts.config).run(network, rng=opts.seed, verify=opts.verify)


def compare(
    network: ConnectionMatrix,
    *,
    options: Optional[FlowOptions] = None,
) -> ComparisonReport:
    """Run AutoNCS and the FullCro baseline; report the Table 1 comparison.

    Parameters
    ----------
    network:
        The connection matrix to implement with both flows.
    options:
        All flow settings (see :class:`FlowOptions`); relevant fields are
        ``config``, ``seed``, ``n_jobs``, ``label`` and ``resilience``.
        Each flow draws from its own child stream spawned from ``seed``,
        so either side is reproducible in isolation, for any ``n_jobs``.

    Returns
    -------
    ComparisonReport
        Wirelength/area/delay of both designs plus reduction
        percentages, with ``.to_dict()`` / ``.format_table()``.
    """
    opts = options if options is not None else FlowOptions()
    if opts.n_jobs <= 1 and opts.resilience is None:
        return AutoNCS(opts.config).compare(network, label=opts.label, rng=opts.seed)
    from repro.runtime import Job, Runner
    from repro.utils.rng import ensure_rng, spawn_seeds

    autoncs_seed, fullcro_seed = spawn_seeds(ensure_rng(opts.seed), 2)
    flow_config = opts.resolved_config()
    payload = {"network": network, "config": flow_config}
    jobs = [
        Job(kind="autoncs", label=f"{network.name} autoncs",
            payload=payload, seed=autoncs_seed),
        Job(kind="fullcro", label=f"{network.name} fullcro",
            payload=payload, seed=fullcro_seed),
    ]
    results = Runner(n_jobs=opts.n_jobs, resilience=opts.resilience).run(jobs)
    failed = [r for r in results if r.failure is not None]
    if failed:
        # The comparison needs both designs; a collected (non-fail-fast)
        # failure still has to surface here.
        first = failed[0].failure
        raise RuntimeError(
            f"compare flow {first.label!r} failed ({first.failure} after "
            f"{first.attempts} attempt(s)): {first.message}"
        )
    result = results[0].value
    return ComparisonReport(
        label=opts.label if opts.label is not None else network.name,
        autoncs=result.design,
        fullcro=results[1].value,
        metadata={"isc_iterations": result.isc.iterations,
                  "outlier_ratio": result.isc.outlier_ratio},
    )


def verify(
    target: Union[ConnectionMatrix, AutoNcsResult, PhysicalDesign, MappingResult],
    *,
    options: Optional[FlowOptions] = None,
) -> VerificationReport:
    """Independently verify a flow artifact (or run the flow, then verify).

    Parameters
    ----------
    target:
        What to verify.  A finished :class:`AutoNcsResult`,
        :class:`~repro.physical.layout.PhysicalDesign` or
        :class:`~repro.mapping.netlist.MappingResult` is checked
        directly; a :class:`~repro.networks.connection_matrix.
        ConnectionMatrix` first runs the flow (AutoNCS by default,
        FullCro with ``baseline=True``) and verifies the result.
    options:
        All flow settings (see :class:`FlowOptions`); relevant fields are
        ``config``, ``seed``, ``baseline``, ``checks`` and ``hopfield``.

    Returns
    -------
    VerificationReport
        Per-check outcomes and violations; ``.passed`` summarizes, and
        ``.raise_if_failed()`` escalates to
        :class:`~repro.verify.VerificationError`.
    """
    from repro.verify.verifier import verify_flow, verify_mapping

    opts = options if options is not None else FlowOptions()
    if isinstance(target, ConnectionMatrix):
        flow = AutoNCS(opts.config)
        if opts.baseline:
            target = flow.run_baseline(target, rng=opts.seed)
        else:
            target = flow.run(target, rng=opts.seed)
    if isinstance(target, AutoNcsResult):
        target = target.design
    if isinstance(target, PhysicalDesign):
        return verify_flow(target, hopfield=opts.hopfield, checks=opts.checks)
    if isinstance(target, MappingResult):
        return verify_mapping(target, hopfield=opts.hopfield, checks=opts.checks)
    raise TypeError(
        "verify() accepts a ConnectionMatrix, AutoNcsResult, PhysicalDesign "
        f"or MappingResult, got {type(target).__name__}"
    )
