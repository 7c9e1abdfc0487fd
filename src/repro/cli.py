"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``
    Run AutoNCS and FullCro on a network (generated or loaded) and print
    the Table-1-style comparison.
``testbench``
    Generate one of the paper testbenches, report its statistics and
    recognition rate, optionally save the network.
``cluster``
    Run ISC on a network and print the per-iteration statistics.
``reliability``
    Monte-Carlo functional yield vs defect rate on a (scaled) testbench,
    before and after fault-aware repair.
``render``
    Render a saved network (and optional clustering) to SVG.
``sweep``
    Run a (size × density) grid of flow executions through the parallel,
    cache-aware :mod:`repro.runtime` engine.
``verify``
    Run the flow on a network (generated, loaded or a paper testbench)
    and independently verify the result: coverage, hardware legality,
    physical legality, functional equivalence.  Exit status 1 on any
    violation.
``bench``
    Run the perf harness (:mod:`repro.bench`): tagged routing/flow
    benchmarks emitting schema-versioned ``BENCH_*.json``, with
    ``--check`` regression gating against the committed baselines.
``serve``
    Run the mapping service (:mod:`repro.service`): an async HTTP/JSON
    job layer over the runtime engine — submit/status/result/cancel,
    dedup by content, bounded queue with backpressure, progress
    streaming and service metrics.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.api import FlowOptions
from repro.api import compare as api_compare
from repro.clustering import iterative_spectral_clustering
from repro.core.config import AutoNcsConfig, fast_config
from repro.experiments.testbenches import build_testbench
from repro.mapping import fullcro_utilization
from repro.networks import random_sparse_network
from repro.networks.connection_matrix import ConnectionMatrix
from repro.networks.io import load_network_npz, save_network_npz
from repro.viz import matrix_to_svg, save_svg

#: Headline metrics pre-registered on every ``--metrics`` run, so the
#: dump always reports them (zero-valued when the path never fired).
_HEADLINE_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "routing.ripup_retries",
    "placement.wa_evals",
)


def _parse_testbench(value: str) -> int:
    """Accept a paper testbench as ``1``/``2``/``3`` or ``tb1``/``tb2``/``tb3``."""
    text = value.strip().lower()
    if text.startswith("tb"):
        text = text[2:]
    try:
        index = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"testbench must be 0-3 or tb1-tb3, got {value!r}"
        ) from None
    if index not in (0, 1, 2, 3):
        raise argparse.ArgumentTypeError(
            f"testbench must be 0-3 or tb1-tb3, got {value!r}"
        )
    return index


@contextmanager
def _observability(trace: Optional[str], metrics: Optional[str]) -> Iterator[None]:
    """Install a recorder when ``--trace``/``--metrics`` asked for one.

    Exports happen in ``finally``, so an interrupted run still leaves
    whatever spans and counters it collected on disk.
    """
    if not trace and not metrics:
        yield
        return
    from repro.observability import Recorder, recording, write_chrome_trace, write_metrics_text

    recorder = Recorder()
    for name in _HEADLINE_COUNTERS:
        recorder.metrics.counter(name)
    recorder.metrics.gauge("cache.hit_rate")
    try:
        with recording(recorder):
            yield
    finally:
        if trace:
            write_chrome_trace(recorder.tracer.spans, trace)
            print(f"trace written to {trace}")
        if metrics:
            write_metrics_text(
                recorder.snapshot(), metrics,
                header=f"repro metrics — {' '.join(sys.argv[1:]) or 'run'}",
            )
            print(f"metrics written to {metrics}")


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Perfetto/chrome://tracing loadable "
                             "span trace (JSONL) to FILE")
    parser.add_argument("--metrics", metavar="FILE",
                        help="write the plain-text metrics dump to FILE")


def _add_resilience_arguments(parser: argparse.ArgumentParser,
                              retries_default: int = 1) -> None:
    parser.add_argument("--retries", type=int, default=retries_default,
                        metavar="N",
                        help="max attempts per job (retries with exponential "
                             f"backoff; default {retries_default})")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-job wall-clock budget; hung pool workers are "
                             "killed and the job retried (default: none)")


def _resilience_from_args(args: argparse.Namespace, fail_fast: bool = True):
    """A :class:`ResilienceConfig` when ``--retries``/``--timeout`` ask for
    one; ``None`` (the legacy fail-fast contract) otherwise."""
    retries = max(1, getattr(args, "retries", 1))
    timeout = getattr(args, "timeout", None)
    if retries <= 1 and timeout is None and fail_fast:
        return None
    from repro.runtime import ResilienceConfig, RetryPolicy

    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=retries),
        timeout_seconds=timeout,
        fail_fast=fail_fast,
    )


def _apply_routing_overrides(
    config: AutoNcsConfig, router: Optional[str]
) -> AutoNcsConfig:
    """Apply the ``--router`` override to the routing config."""
    if not router:
        return config
    import dataclasses

    from repro.physical.routing.router import RoutingConfig

    routing = config.routing if config.routing is not None else RoutingConfig()
    routing = dataclasses.replace(routing, algorithm=router)
    return dataclasses.replace(config, routing=routing)


def _load_or_generate(args: argparse.Namespace) -> ConnectionMatrix:
    if getattr(args, "load", None):
        return load_network_npz(args.load)
    return random_sparse_network(
        args.neurons, args.density, rng=args.seed, name="cli-network"
    )


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--load", help="load a network saved with 'testbench --save'")
    parser.add_argument("--neurons", type=int, default=160,
                        help="generated network size (default 160)")
    parser.add_argument("--density", type=float, default=0.05,
                        help="generated connection density (default 0.05)")
    parser.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")


def _resolve_testbench_network(args: argparse.Namespace):
    """``(network, hopfield)`` of the scaled paper testbench in ``args``."""
    from repro.experiments.testbenches import scaled_testbench

    spec = scaled_testbench(args.testbench, args.dimension or None)
    instance = build_testbench(spec, rng=args.seed)
    print(f"testbench: {spec.label}")
    return instance.network, instance.hopfield


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.testbench:
        network, _hopfield = _resolve_testbench_network(args)
    else:
        network = _load_or_generate(args)
    config = _apply_routing_overrides(
        fast_config() if args.fast else AutoNcsConfig(), args.router
    )
    print(f"network: {network}")
    with _observability(args.trace, args.metrics):
        report = api_compare(
            network,
            options=FlowOptions(
                config=config,
                seed=args.seed,
                n_jobs=args.jobs,
                resilience=_resilience_from_args(args),
            ),
        )
    print(report.format_table())
    if args.verbose:
        from repro.core.summary import summarize_design

        for design in (report.autoncs, report.fullcro):
            print()
            print(summarize_design(design, technology=config.technology).format())
    return 0


def _cmd_testbench(args: argparse.Namespace) -> int:
    instance = build_testbench(args.index, rng=args.seed)
    network = instance.network
    print(f"testbench       : {instance.testbench.label}")
    print(f"network         : {network}")
    print(f"target sparsity : {instance.testbench.target_sparsity:.4f}")
    if not args.skip_recognition:
        rate = instance.recognition_rate(rng=args.seed, trials_per_pattern=2)
        print(f"recognition rate: {rate:.1%} (paper requires > 90 %)")
    if args.save:
        save_network_npz(network, args.save)
        print(f"saved network to {args.save}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    network = _load_or_generate(args)
    threshold = fullcro_utilization(network, 64)
    print(f"network: {network}")
    print(f"ISC stop threshold (FullCro utilization): {threshold:.4f}")
    isc = iterative_spectral_clustering(
        network, utilization_threshold=threshold, rng=args.seed
    )
    for record in isc.records:
        print(
            f"  iter {record.iteration:2d}: +{record.crossbars_placed:3d} crossbars, "
            f"avg u = {record.average_utilization:.3f}, "
            f"outliers left = {record.outlier_ratio_after:.1%}"
        )
    print(f"crossbars: {len(isc.crossbars)}  sizes: {isc.crossbar_size_histogram()}")
    print(f"discrete synapses: {len(isc.outliers)} ({isc.outlier_ratio:.1%})")
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    from repro.experiments.reliability import run_reliability_experiment

    result = run_reliability_experiment(
        testbench=args.testbench,
        dimension=args.dimension or None,
        defect_rates=tuple(args.rates),
        samples=args.samples,
        spare_instances=args.spares,
        rng=args.seed,
        n_jobs=args.jobs,
        resilience=_resilience_from_args(args),
    )
    print(result.format())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.runtime import (
        ArtifactCache,
        EventLog,
        FaultPlan,
        ProgressPrinter,
        Runner,
        SweepJournal,
        SweepSpec,
    )

    config: AutoNcsConfig = fast_config() if args.fast else AutoNcsConfig()
    cache = None
    if not args.no_cache:
        cache = ArtifactCache(args.cache_dir)
        if args.clear_cache:
            removed = cache.clear()
            print(f"cleared {removed} cached artifact(s) from {cache.root}")
    if args.resume and cache is None:
        print("error: --resume needs the artifact cache to serve the cells "
              "already done (remove --no-cache)", file=sys.stderr)
        return 2
    spec = SweepSpec(
        sizes=tuple(args.sizes),
        densities=tuple(args.densities),
        seed=args.seed,
        kind=args.kind,
        config=config,
    )
    chaos = FaultPlan.parse(args.chaos, seed=args.seed) if args.chaos else None
    # Sweeps always run resilient: failed cells are collected as partial
    # results (exit status 1) instead of aborting the whole grid.
    resilience = _resilience_from_args(args, fail_fast=False)
    journal_path = (
        Path(args.journal) if args.journal
        else (cache.root / f"journal-{spec.sweep_key()[:12]}.jsonl")
        if cache is not None
        else None
    )
    if args.resume and journal_path is not None and not journal_path.exists():
        print(f"note: nothing to resume (no journal at {journal_path}); "
              "running the full grid")
    with _observability(None, args.metrics):
        with EventLog(trace_path=args.trace, printer=ProgressPrinter()) as events:
            journal = SweepJournal(journal_path) if journal_path else None
            try:
                runner = Runner(
                    n_jobs=args.jobs, cache=cache, events=events,
                    resilience=resilience, chaos=chaos, journal=journal,
                )
                result = runner.run_sweep(spec, resume=args.resume)
            finally:
                if journal is not None:
                    journal.close()
    print()
    print(result.format_table())
    if journal_path is not None:
        print(f"journal: {journal_path} (resume with --resume)")
    if args.trace:
        print(f"trace written to {args.trace}")
    if result.failures:
        for failure in result.failures:
            print(f"FAILED {failure.label}: {failure.failure} "
                  f"after {failure.attempts} attempt(s) — {failure.message}",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.api import verify as api_verify

    config = _apply_routing_overrides(
        fast_config() if args.fast else AutoNcsConfig(), args.router
    )
    hopfield = None
    if args.testbench:
        network, hopfield = _resolve_testbench_network(args)
    else:
        network = _load_or_generate(args)
    print(f"network: {network}")
    with _observability(args.trace, args.metrics):
        report = api_verify(
            network,
            options=FlowOptions(
                config=config,
                seed=args.seed,
                baseline=args.baseline,
                checks=args.checks or None,
                hopfield=hopfield,
            ),
        )
    print(report.format())
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_bench_command

    return run_bench_command(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig
    from repro.service.http import ServiceServer

    config = ServiceConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        cache_dir=args.cache_dir,
        max_cache_bytes=args.max_cache_bytes,
        retries=args.retries,
        timeout_seconds=args.timeout,
    )
    server = ServiceServer(config, host=args.host, port=args.port,
                           verbose=args.verbose)
    print(f"mapping service listening on {server.url}")
    print(f"  workers={config.workers} max_queue={config.max_queue} "
          f"cache={config.cache_dir}")
    print("  POST /jobs  GET /jobs/<id>[/result|/events]  GET /stats  "
          "(ctrl-c to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    network = load_network_npz(args.network)
    clusters = None
    if args.clustered:
        threshold = fullcro_utilization(network, 64)
        isc = iterative_spectral_clustering(
            network, utilization_threshold=threshold, rng=args.seed
        )
        clusters = [assignment.members for assignment in isc.crossbars]
    svg = matrix_to_svg(network, clusters=clusters, title=network.name)
    save_svg(svg, args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoNCS: EDA flow for hybrid memristor neuromorphic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="AutoNCS vs FullCro comparison")
    _add_network_arguments(compare)
    compare.add_argument("--testbench", type=_parse_testbench, default=0,
                         help="compare on a paper testbench (1-3 or tb1-tb3) "
                              "instead of a generated/loaded network "
                              "(default 0 = off)")
    compare.add_argument("--dimension", type=int, default=120,
                         help="scaled testbench size N (default 120; "
                              "0 = full paper size)")
    compare.add_argument("--fast", action="store_true",
                         help="reduced-effort physical design (quick preview)")
    compare.add_argument("--verbose", action="store_true",
                         help="print the full per-design datasheets")
    compare.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the two flows (default 1; "
                              "results are identical for any value)")
    compare.add_argument("--router", choices=("ordered", "negotiated"), default=None,
                         help="routing algorithm override (default: config's, "
                              "i.e. ordered)")
    _add_resilience_arguments(compare)
    _add_observability_arguments(compare)
    compare.set_defaults(func=_cmd_compare)

    testbench = sub.add_parser("testbench", help="generate a paper testbench")
    testbench.add_argument("index", type=int, choices=(1, 2, 3),
                           help="paper testbench index")
    testbench.add_argument("--seed", type=int, default=42)
    testbench.add_argument("--save", help="save the network as .npz")
    testbench.add_argument("--skip-recognition", action="store_true")
    testbench.set_defaults(func=_cmd_testbench)

    cluster = sub.add_parser("cluster", help="run ISC and show the iterations")
    _add_network_arguments(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    reliability = sub.add_parser(
        "reliability", help="Monte-Carlo yield vs defect rate, repair on/off"
    )
    reliability.add_argument("--testbench", type=int, default=1, choices=(1, 2, 3),
                             help="paper testbench index (default 1)")
    reliability.add_argument("--dimension", type=int, default=100,
                             help="scaled network size N (default 100; "
                                  "0 = full paper size)")
    reliability.add_argument("--rates", type=float, nargs="+",
                             default=[0.0, 0.2, 0.4],
                             help="stuck-off cell defect rates to sweep")
    reliability.add_argument("--samples", type=int, default=5,
                             help="sampled chips per defect rate (default 5)")
    reliability.add_argument("--spares", type=int, default=2,
                             help="spare crossbars for repair (default 2)")
    reliability.add_argument("--seed", type=int, default=42)
    reliability.add_argument("--jobs", type=int, default=1,
                             help="worker processes for the Monte-Carlo trials "
                                  "(default 1; results are identical for any value)")
    _add_resilience_arguments(reliability)
    reliability.set_defaults(func=_cmd_reliability)

    sweep = sub.add_parser(
        "sweep", help="run a (size x density) grid through the runtime engine"
    )
    sweep.add_argument("--sizes", type=int, nargs="+", default=[80, 120, 160],
                       help="network sizes to sweep (default 80 120 160)")
    sweep.add_argument("--densities", type=float, nargs="+",
                       default=[0.04, 0.06, 0.08],
                       help="connection densities to sweep "
                            "(default 0.04 0.06 0.08)")
    sweep.add_argument("--seed", type=int, default=42,
                       help="sweep master seed (default 42)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1; results are "
                            "identical for any value)")
    sweep.add_argument("--kind", choices=("compare", "autoncs", "fullcro"),
                       default="compare",
                       help="flow to run per cell (default compare)")
    sweep.add_argument("--fast", action="store_true",
                       help="reduced-effort physical design (quick preview)")
    sweep.add_argument("--cache-dir", default=".repro-cache",
                       help="artifact cache directory (default .repro-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the artifact cache entirely")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="empty the cache before running")
    sweep.add_argument("--trace",
                       help="write a JSONL event trace to this file")
    sweep.add_argument("--metrics", metavar="FILE",
                       help="write the plain-text metrics dump to FILE")
    _add_resilience_arguments(sweep, retries_default=2)
    sweep.add_argument("--chaos", metavar="SPEC", default=None,
                       help="inject deterministic faults: a preset (transient, "
                            "crash, hang, error, corrupt, mixed) or "
                            "'kind@site:p=0.5;...' rules — see "
                            "repro.runtime.chaos")
    sweep.add_argument("--journal", metavar="FILE", default=None,
                       help="crash-safe sweep journal path (default: "
                            "<cache-dir>/journal-<sweep-key>.jsonl)")
    sweep.add_argument("--resume", action="store_true",
                       help="resume a killed sweep: replay the journal, skip "
                            "quarantined cells, serve finished cells from the "
                            "cache (bitwise-identical results)")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser(
        "verify", help="run the flow and independently verify the result"
    )
    _add_network_arguments(verify)
    verify.add_argument("--testbench", type=_parse_testbench, default=0,
                        help="verify a paper testbench (1-3 or tb1-tb3) instead "
                             "of a generated/loaded network (default 0 = off)")
    verify.add_argument("--dimension", type=int, default=120,
                        help="scaled testbench size N (default 120; "
                             "0 = full paper size)")
    verify.add_argument("--baseline", action="store_true",
                        help="verify the FullCro baseline flow instead of AutoNCS")
    verify.add_argument("--fast", action="store_true",
                        help="reduced-effort physical design (quick preview)")
    verify.add_argument("--checks", nargs="+",
                        choices=("coverage", "hardware", "physical", "functional"),
                        help="run only these checks (default: all)")
    verify.add_argument("--router", choices=("ordered", "negotiated"), default=None,
                        help="routing algorithm override (default: config's, "
                             "i.e. ordered)")
    _add_observability_arguments(verify)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser(
        "bench", help="perf harness: run benchmarks, emit/check BENCH_*.json"
    )
    from repro.bench import add_bench_arguments

    add_bench_arguments(bench)
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the mapping service (async HTTP job layer)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (default 8787; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="service worker threads (default 2)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="queued-job bound; beyond it submissions get "
                            "429 + Retry-After (default 64)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="artifact cache directory (default .repro-cache)")
    serve.add_argument("--max-cache-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="LRU-evict cached artifacts beyond this size "
                            "(default: unbounded)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    _add_resilience_arguments(serve, retries_default=2)
    serve.set_defaults(func=_cmd_serve)

    render = sub.add_parser("render", help="render a saved network to SVG")
    render.add_argument("network", help="a .npz network file")
    render.add_argument("--output", default="network.svg")
    render.add_argument("--clustered", action="store_true",
                        help="overlay the ISC crossbar clusters")
    render.add_argument("--seed", type=int, default=42)
    render.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
