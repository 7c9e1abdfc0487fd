"""Measuring one workload: setup, timed flows, correctness, metrics.

Imported by ``run.py`` once the checkout's ``src/`` is on the path.  The
load model is a closed loop: one flow at a time in this process.  A flow
that raises, fails a verifier check or overflows routing capacity is
counted as failed and the run moves on to the next network.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import repro
from layers import LayerClock, interposed
from repro.observability import Recorder, recording, write_chrome_trace
from repro.physical.routing.kernel import resolve_kernel
from repro.physical.routing.router import RoutingConfig

#: Each part of setup (a fresh interpreter's imports; input generation
#: plus the warm-up flow) runs this many times; setup_s adds the medians.
SETUP_REPEATS = 3

#: Layer self times must cover at least this share of the traced flow time.
MIN_ATTRIBUTED = 0.95

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "flow_s": "s",
    "peak_rss_mb": "MB",
    "area_um2": "um2",
    "wirelength_um": "um",
    "delay_ns": "ns",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Times and counts are
#: per pass over the workload's networks; ratios are over the whole run.
PER_LAYER = {
    "networks.generate_s": "s",
    "clustering.busy_s": "s",
    "clustering.eigensolve_s": "s",
    "clustering.eigensolve_calls": "count",
    "clustering.kmeans_s": "s",
    "clustering.kmeans_calls": "count",
    "clustering.self_s": "s",
    "clustering.isc_iterations": "count",
    "clustering.kmeans_per_crossbar": "ratio",
    "clustering.outlier_ratio": "ratio",
    "mapping.busy_s": "s",
    "mapping.cells": "count",
    "mapping.wires": "count",
    "placement.busy_s": "s",
    "placement.cg_s": "s",
    "placement.wa_s": "s",
    "placement.density_s": "s",
    "placement.legalize_s": "s",
    "placement.wa_evals": "count",
    "placement.density_evals": "count",
    "placement.lambda_stages": "count",
    "placement.overlap_ratio": "ratio",
    "placement.fallbacks": "count",
    "routing.busy_s": "s",
    "routing.maze_s": "s",
    "routing.maze_calls": "count",
    "routing.heap_pops": "count",
    "routing.pops_per_wire": "ratio",
    "routing.useful_ratio": "ratio",
    "routing.ripup_retries": "count",
    "routing.relax_rounds": "count",
    "routing.retries": "count",
    "cost.busy_s": "s",
    "verify.coverage_s": "s",
    "verify.hardware_s": "s",
    "verify.physical_s": "s",
    "verify.functional_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
}


class Tally:
    """Flow samples, failures and QoR of one measurement."""

    def __init__(self, cases) -> None:
        self.cases = list(cases)
        self.seconds = {case.name: [] for case in self.cases}
        self.qor = {}
        self.attempted = 0
        self.failures = []
        self.mismatches = []

    def add(self, case, seconds, design, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{case.name}: {problem}")
            return
        self.seconds[case.name].append(seconds)
        qor = design.qor()
        first = self.qor.setdefault(case.name, qor)
        if qor != first:
            self.mismatches.append(f"{case.name}: QoR {qor} differs from {first} on a rerun")

    def flow_s(self) -> float:
        """Seconds to verified designs: the sum over networks of each
        network's median flow time."""
        return sum(statistics.median(s) for s in self.seconds.values() if s)

    def total_s(self) -> float:
        """Every verified flow's time, summed."""
        return sum(sum(s) for s in self.seconds.values())

    def qor_totals(self):
        """Summed area and wirelength, and mean delay, over verified designs."""
        values = list(self.qor.values())
        if not values:
            return 0.0, 0.0, 0.0
        return (
            sum(v[0] for v in values),
            sum(v[1] for v in values),
            statistics.fmean(v[2] for v in values),
        )


def run_flow(workload, case):
    """One timed flow: ``(seconds, design or None, problem or None)``."""
    start = time.perf_counter()
    try:
        design = workload.flow(case)
    except Exception as exc:  # a failing flow is counted; the run moves on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, design, design.problem()


def import_seconds(repeats=SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter that starts and imports the
    benchmark and the program, the first part of setup_s."""
    paths = [str(Path(__file__).resolve().parent), str(Path(repro.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import measure, workloads"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def set_up(workload, seed, warm_up, import_s, repeats=SETUP_REPEATS):
    """Generate the inputs and warm up, ``repeats`` times.

    ``import_s`` is the :func:`import_seconds` reading, added to setup_s.
    Returns ``(cases, setup_s, generate_s, problems)``: generation must be
    deterministic, so every repeat has to produce the same networks.
    """
    totals, generate, digests = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        cases = workload.generate(seed)
        generated = time.perf_counter()
        warm_up()
        totals.append(time.perf_counter() - start)
        generate.append(generated - start)
        digests.append([case.network.digest() for case in cases])
    problems = [] if all(d == digests[0] for d in digests) else ["inputs differ between repeats"]
    return cases, import_s + statistics.median(totals), statistics.median(generate), problems


def measure(workload, cases, seconds) -> Tally:
    """Untraced flows: one full pass, then round-robin while time remains."""
    tally = Tally(cases)
    start = time.perf_counter()
    position = 0
    while True:
        case = cases[position % len(cases)]
        if position >= len(cases):
            previous = tally.seconds[case.name]
            expected = previous[-1] if previous else 0.0
            if time.perf_counter() - start + expected > seconds:
                return tally
        tally.add(case, *run_flow(workload, case))
        position += 1


def _design_facts(design) -> dict:
    mapping = design.design.mapping
    stages = design.design.placement.metadata.get("stages", [])
    return {
        "cells": mapping.netlist.num_cells,
        "wires": mapping.netlist.num_wires,
        "outlier_ratio": mapping.num_synapses / max(1, mapping.network.num_connections),
        "overlap_ratio": stages[-1]["overlap_ratio"] if stages else 0.0,
        "placement_fallbacks": sum(f["stage"] == "placement" for f in design.fallbacks),
        "routing_retries": sum(f["stage"] == "routing" for f in design.fallbacks),
    }


class Traced:
    """What a traced measurement collected."""

    def __init__(self, cases) -> None:
        self.untraced = Tally(cases)
        self.traced = Tally(cases)
        self.recorder = Recorder()
        self.clock = LayerClock(span=self.recorder.span)
        self.facts = []
        self.passes = 0


def measure_traced(workload, cases, seconds) -> Traced:
    """Pairs of passes, untraced then traced, while time remains (at least one)."""
    run = Traced(cases)
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for case in cases:
            run.untraced.add(case, *run_flow(workload, case))
        with recording(run.recorder), interposed(run.clock):
            for case in cases:
                seconds_taken, design, problem = run_flow(workload, case)
                run.traced.add(case, seconds_taken, design, problem)
                if design is not None:
                    run.facts.append(_design_facts(design))
        run.passes += 1
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > seconds:
            return run


def layer_metrics(run: Traced, generate_s: float) -> dict:
    """Every :data:`PER_LAYER` metric from one traced measurement."""
    clock, facts = run.clock, run.facts
    inclusive, calls = clock.inclusive, clock.calls
    counters = run.recorder.snapshot().counters

    def per_pass(value):
        return value / run.passes

    def total(key):
        return per_pass(sum(f[key] for f in facts))

    def mean(key):
        return statistics.fmean(f[key] for f in facts) if facts else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    wires_routed = counters.get("routing.wires_routed", 0)
    return {
        "networks.generate_s": generate_s,
        "clustering.busy_s": per_pass(inclusive["clustering.busy"]),
        "clustering.eigensolve_s": per_pass(inclusive["clustering.eigensolve"]),
        "clustering.eigensolve_calls": per_pass(calls["clustering.eigensolve"]),
        "clustering.kmeans_s": per_pass(inclusive["clustering.kmeans"]),
        "clustering.kmeans_calls": per_pass(calls["clustering.kmeans"]),
        "clustering.self_s": per_pass(clock.self_time["clustering.busy"]),
        "clustering.isc_iterations": per_pass(counters.get("isc.iterations", 0)),
        "clustering.kmeans_per_crossbar": ratio(
            calls["clustering.kmeans"], counters.get("isc.crossbars_placed", 0)
        ),
        "clustering.outlier_ratio": mean("outlier_ratio"),
        "mapping.busy_s": per_pass(inclusive["mapping.busy"]),
        "mapping.cells": total("cells"),
        "mapping.wires": total("wires"),
        "placement.busy_s": per_pass(inclusive["placement.busy"]),
        "placement.cg_s": per_pass(inclusive["placement.cg"]),
        "placement.wa_s": per_pass(inclusive["placement.wa"]),
        "placement.density_s": per_pass(inclusive["placement.density"]),
        "placement.legalize_s": per_pass(inclusive["placement.legalize"]),
        "placement.wa_evals": per_pass(counters.get("placement.wa_evals", 0)),
        "placement.density_evals": per_pass(counters.get("placement.density_evals", 0)),
        "placement.lambda_stages": per_pass(counters.get("placement.lambda_stages", 0)),
        "placement.overlap_ratio": mean("overlap_ratio"),
        "placement.fallbacks": total("placement_fallbacks"),
        "routing.busy_s": per_pass(inclusive["routing.busy"]),
        "routing.maze_s": per_pass(inclusive["routing.maze"]),
        "routing.maze_calls": per_pass(calls["routing.maze"]),
        "routing.heap_pops": per_pass(counters.get("routing.heap_pops", 0)),
        "routing.pops_per_wire": ratio(counters.get("routing.heap_pops", 0), wires_routed),
        "routing.useful_ratio": ratio(wires_routed, counters.get("routing.maze_searches", 0)),
        "routing.ripup_retries": per_pass(counters.get("routing.ripup_retries", 0)),
        "routing.relax_rounds": per_pass(counters.get("routing.relax_rounds", 0)),
        "routing.retries": total("routing_retries"),
        "cost.busy_s": per_pass(inclusive["cost.busy"]),
        "verify.coverage_s": per_pass(inclusive["verify.coverage"]),
        "verify.hardware_s": per_pass(inclusive["verify.hardware"]),
        "verify.physical_s": per_pass(inclusive["verify.physical"]),
        "verify.functional_s": per_pass(inclusive["verify.functional"]),
        "trace.overhead_ratio": ratio(run.traced.flow_s(), run.untraced.flow_s()),
        "trace.attributed_ratio": ratio(clock.attributed(), run.traced.total_s()),
    }


def trace_problems(run: Traced, attributed: float) -> list:
    """Ways the traced run disagrees with itself or with the untraced run;
    ``attributed`` is the ``trace.attributed_ratio`` metric."""
    problems = []
    if run.traced.qor != run.untraced.qor:
        problems.append("QoR of the traced run differs from the untraced run")
    if attributed < MIN_ATTRIBUTED:
        problems.append(f"layer self times cover only {attributed:.1%} of the traced flow time")
    calls = run.clock.calls["routing.maze"]
    searches = run.recorder.snapshot().counters.get("routing.maze_searches", 0)
    # A maze_route call searches once, or twice when its window is too tight.
    if not calls <= searches <= 2 * calls:
        problems.append(f"{calls} maze_route calls but {searches} maze searches")
    return problems


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(workload, seed, seconds, trace, warm_up, import_s, trace_dir=None):
    """Measure one workload; returns ``(result, report_lines)``.

    ``import_s`` is the :func:`import_seconds` reading.  ``result`` is the
    benchmark's result object (``correct``, ``attempted``, ``failed``,
    ``metrics``); ``report_lines`` is the human-readable table printed
    above it.
    """
    cases, setup_s, generate_s, problems = set_up(workload, seed, warm_up, import_s)
    if trace:
        run = measure_traced(workload, cases, seconds)
        values = layer_metrics(run, generate_s)
        problems += trace_problems(run, values["trace.attributed_ratio"])
        tallies = (run.untraced, run.traced)
        metrics = _with_units(values, PER_LAYER)
        if trace_dir is not None:
            write_trace(Path(trace_dir), workload.name, run, metrics)
    else:
        tally = measure(workload, cases, seconds)
        tallies = (tally,)
        area, wirelength, delay = tally.qor_totals()
        values = {
            "setup_s": setup_s,
            "flow_s": tally.flow_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "area_um2": area,
            "wirelength_um": wirelength,
            "delay_ns": delay,
        }
        metrics = _with_units(values, END_TO_END)
    for tally in tallies:
        problems += tally.failures + tally.mismatches
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(len(t.failures) for t in tallies),
        "metrics": metrics,
    }
    return result, report(workload.name, seed, seconds, trace, tallies[0], metrics, problems)


def write_trace(directory: Path, name: str, run: Traced, metrics: dict) -> None:
    """``<name>.trace.json`` (Chrome trace) and ``<name>.layers.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(run.recorder.tracer.spans, directory / f"{name}.trace.json")
    layers = {
        "passes": run.passes,
        "metrics": metrics,
        "self_s": dict(sorted(run.clock.self_time.items())),
        "inclusive_s": dict(sorted(run.clock.inclusive.items())),
        "calls": dict(sorted(run.clock.calls.items())),
        "counters": dict(sorted(run.recorder.snapshot().counters.items())),
    }
    (directory / f"{name}.layers.json").write_text(json.dumps(layers, indent=2) + "\n")


def threads() -> str:
    """This process's CPU count, BLAS thread setting and maze-search
    kernel, for the record."""
    blas = next(
        (f"{var}={os.environ[var]}" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
         if var in os.environ),
        "BLAS threads default",
    )
    kernel = resolve_kernel(RoutingConfig().kernel)
    return f"nproc={len(os.sched_getaffinity(0))}, {blas}, routing kernel {kernel}"


def report(name, seed, seconds, trace, tally, metrics, problems) -> list:
    """The human-readable table: one row per network, then every metric."""
    lines = [
        f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
        f"({threads()}, one flow at a time)",
        f"  {'network':<14}{'samples':>8}{'median s':>10}{'area um2':>12}"
        f"{'wirelength um':>15}{'delay ns':>10}",
    ]
    for case in tally.cases:
        samples = tally.seconds[case.name]
        median = f"{statistics.median(samples):.3f}" if samples else "-"
        area, wirelength, delay = tally.qor.get(case.name, (float("nan"),) * 3)
        lines.append(
            f"  {case.name:<14}{len(samples):>8}{median:>10}{area:>12.1f}"
            f"{wirelength:>15.1f}{delay:>10.4f}"
        )
    for metric, entry in metrics.items():
        lines.append(f"  {metric:<32}{entry['value']:>16.6g} {entry['unit']}")
    lines.extend(f"  FAILED: {problem}" for problem in problems)
    return lines
