"""Failure accounting and correctness checks of the runner."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import measure
import numpy as np
import run
import workloads
from repro.observability import get_recorder
from repro.verify import verifier
from repro.verify.report import CheckResult, Violation

ROOT = Path(__file__).resolve().parents[2]


def _run(workload, warm_up, trace=0):
    return measure.run_workload(workload, 5, 0.01, trace, warm_up, 0.0)


def test_healthy_workload_is_correct(tiny, no_warm_up):
    result, lines = _run(tiny, no_warm_up)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # one pass: the run length is tiny
    assert not any("FAILED" in line for line in lines)


def test_failing_verifier_counts_every_flow_as_failed(tiny, no_warm_up, monkeypatch):
    def injected(mapping):
        return CheckResult(name="coverage", violations=[Violation("coverage", "injected")])

    monkeypatch.setattr(verifier, "check_coverage", injected)
    result, lines = _run(tiny, no_warm_up)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert any("verification failed: [coverage] injected" in line for line in lines)


def test_a_raising_flow_is_counted_and_the_run_moves_on(tiny, no_warm_up):
    def flow(case):
        if case.name.endswith(".0"):
            raise np.linalg.LinAlgError("1 eigenvectors failed to converge")
        return tiny.flow(case)

    result, _ = _run(workloads.Workload("tiny", tiny.generate, flow), no_warm_up)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]["flow_s"]["value"] > 0  # the second network was measured


class _FixedQor:
    def qor(self):
        return (1.0, 1.0, 1.0)


def _tally(samples_per_network):
    cases = [workloads.Case(f"net.{i}", None, i) for i in range(len(samples_per_network))]
    tally = measure.Tally(cases)
    for case, samples in zip(cases, samples_per_network):
        for seconds in samples:
            tally.add(case, seconds, _FixedQor(), None)
    return tally


def test_flow_s_sums_every_networks_median_time():
    assert _tally([[1.0, 2.0, 9.0]] * 7).flow_s() == 14.0
    # Three of seven networks twice as slow: the sum must show it.
    slower = [[2.0, 4.0, 18.0]] * 3 + [[1.0, 2.0, 9.0]] * 4
    assert _tally(slower).flow_s() == 20.0


def test_tracing_must_not_change_qor(tiny, no_warm_up):
    class Skewed(workloads.Design):
        def qor(self):
            area, wirelength, delay = super().qor()
            return (area * (1.01 if get_recorder().enabled else 1.0), wirelength, delay)

    def flow(case):
        design = tiny.flow(case)
        return Skewed(design.design, design.report, design.fallbacks)

    result, lines = _run(workloads.Workload("tiny", tiny.generate, flow), no_warm_up, trace=1)
    assert not result["correct"] and result["failed"] == 0
    assert any("traced run differs" in line for line in lines)


def test_traced_run_reports_overhead_and_full_attribution(tiny, no_warm_up):
    result, _ = _run(tiny, no_warm_up, trace=1)
    assert result["correct"] and result["attempted"] == 4  # one untraced + one traced pass
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["trace.attributed_ratio"] >= measure.MIN_ATTRIBUTED
    assert metrics["routing.maze_calls"] > 0 and metrics["clustering.kmeans_calls"] > 0


def test_trace_dir_gets_a_chrome_trace_and_the_layer_table(tiny, no_warm_up, tmp_path):
    measure.run_workload(tiny, 5, 0.01, 1, no_warm_up, 0.0, trace_dir=tmp_path)
    events = json.loads((tmp_path / "tiny.trace.json").read_text())
    assert {"flow.run", "layer.clustering.kmeans"} <= {event["name"] for event in events}
    table = json.loads((tmp_path / "tiny.layers.json").read_text())
    assert set(table["metrics"]) == set(measure.PER_LAYER)


def test_import_time_comes_from_a_fresh_interpreter():
    assert 0 < measure.import_seconds(repeats=1) < 60


def test_unknown_workload_is_a_usage_error(capsys):
    assert run.main(["--workload", "no-such-workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_without_the_sources_the_runner_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sf-250", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
