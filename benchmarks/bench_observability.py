"""Observability layer — null-recorder overhead and instrumented-flow cost.

Not a paper table: this bench characterizes the
:mod:`repro.observability` layer itself, checking the overhead contract
from DESIGN.md:

* with no recorder installed (the default ``NULL_RECORDER``), the
  instrumentation left in the hot paths must be effectively free — the
  bench measures the per-call cost of the no-op recorder and the
  wall-clock of a fully instrumented flow run, and records both;
* with a live recorder, the same flow must produce the headline
  counters and flow-stage spans; the enabled-vs-disabled wall-clock
  ratio is recorded, with only a deliberately loose sanity bound
  asserted (wall-clock ratios are machine- and load-dependent).
"""

from __future__ import annotations

import time

from benchmarks.conftest import bench_config, bench_fast, bench_seed, write_result
from repro.core import AutoNCS
from repro.networks import random_sparse_network
from repro.observability import NULL_RECORDER, get_recorder, recording

#: Counters the instrumented flow must always produce (the QoR headline).
HEADLINE_COUNTERS = (
    "flow.runs",
    "isc.runs",
    "placement.wa_evals",
    "routing.heap_pushes",
    "routing.ripup_retries",
    "routing.wires_routed",
)

FLOW_STAGES = ("flow.cluster", "flow.map", "flow.place", "flow.route", "flow.evaluate")

NULL_CALLS = 200_000


def _network():
    size = 48 if bench_fast() else 96
    return random_sparse_network(size, 0.07, rng=bench_seed(), name="bench-obs")


def _flow_seconds(network, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        flow = AutoNCS(bench_config())
        started = time.perf_counter()
        flow.run(network, rng=bench_seed())
        best = min(best, time.perf_counter() - started)
    return best


def test_null_recorder_call_cost(benchmark):
    """Per-call cost of disabled instrumentation (count + self-timing span)."""
    assert get_recorder() is NULL_RECORDER

    def hot_loop():
        recorder = get_recorder()
        negative = 0
        for _ in range(NULL_CALLS):
            recorder.count("bench.counter")
            with recorder.span("bench.span") as span:
                pass
            if span.duration < 0.0:
                negative += 1
        return recorder, negative

    recorder, negative = benchmark.pedantic(hot_loop, rounds=3, iterations=1)
    # Every null span times itself (the stage clock needs no recorder) ...
    assert negative == 0
    # ... yet the null recorder must have recorded nothing at all.
    assert recorder.tracer.spans == []
    assert recorder.snapshot().empty
    mean_seconds = benchmark.stats.stats.mean
    ns_per_call = mean_seconds / (2 * NULL_CALLS) * 1e9
    write_result(
        "observability_null_cost",
        f"{2 * NULL_CALLS:,} disabled count+span calls: "
        f"{mean_seconds:.4f} s ({ns_per_call:.0f} ns/call)",
    )


def test_instrumented_flow_overhead(benchmark):
    """Enabled-vs-disabled wall clock of one instrumented flow run."""
    network = _network()
    repeats = 2 if bench_fast() else 3
    timings = {}

    def run_both():
        assert get_recorder() is NULL_RECORDER
        timings["disabled"] = _flow_seconds(network, repeats)
        with recording() as recorder:
            timings["enabled"] = _flow_seconds(network, repeats)
        timings["recorder"] = recorder
        return timings

    benchmark.pedantic(run_both, rounds=1, iterations=1)
    recorder = timings["recorder"]

    # The enabled run must produce the headline counters and stage spans.
    snapshot = recorder.snapshot()
    for name in HEADLINE_COUNTERS:
        assert snapshot.get(name) is not None, f"missing counter {name}"
    span_names = {span.name for span in recorder.tracer.spans}
    for stage in FLOW_STAGES:
        assert stage in span_names, f"missing span {stage}"

    disabled, enabled = timings["disabled"], timings["enabled"]
    ratio = enabled / disabled if disabled > 0 else float("inf")
    # Loose sanity bound only: recording a full flow must not blow up
    # the wall clock (the real <5 % disabled-overhead contract is
    # checked against bench_runtime's recorded throughput history).
    assert ratio < 3.0, f"enabled instrumentation ratio {ratio:.2f}x"

    lines = [
        f"flow: {network} (best of {repeats})",
        f"{'mode':>10} {'seconds':>9}",
        f"{'disabled':>10} {disabled:>9.3f}",
        f"{'enabled':>10} {enabled:>9.3f}   ({ratio:.2f}x)",
        "",
        "headline counters (enabled run):",
    ]
    for name in HEADLINE_COUNTERS:
        lines.append(f"  {name:<28} {snapshot.get(name):>10,}")
    lines.append(f"  spans recorded               {len(recorder.tracer.spans):>10,}")
    write_result("observability_overhead", "\n".join(lines))
