"""Tests for the perf harness (:mod:`repro.bench`).

The suites run at a deliberately tiny dimension here — the point is the
harness machinery (schema round-trip, regression gate, CLI), not the
benchmark numbers themselves.
"""

import copy
import json

import pytest

from repro.bench import (
    BASELINE_FILES,
    DEFAULT_THRESHOLD_PCT,
    SCHEMA_VERSION,
    SUITES,
    compare_to_baseline,
    load_suite_json,
    main,
    metric_gate,
    run_suite,
    suite_result_from_dict,
    write_suite_json,
)

DIM = 16  # smallest practical scaled testbench


@pytest.fixture(scope="module")
def routing_suite():
    return run_suite("routing", fast=True, dimension=DIM, testbenches=(1,))


class TestSuiteRun:
    def test_covers_both_algorithms(self, routing_suite):
        names = [record.name for record in routing_suite.benchmarks]
        assert names == ["tb1.ordered", "tb1.negotiated"]

    def test_records_carry_qor_and_counters(self, routing_suite):
        for record in routing_suite.benchmarks:
            assert record.wall_seconds >= 0.0
            assert "wirelength_um" in record.qor
            assert "overflow_wires" in record.qor
            assert record.counters.get("routing.heap_pushes", 0) > 0
            assert "routing.ripup_retries" in record.counters

    def test_flow_suite_runs(self):
        result = run_suite("flow", fast=True, dimension=DIM)
        assert [r.name for r in result.benchmarks] == [
            "flow.tb1.ordered",
            "flow.tb1.negotiated",
            "chaos.null",
            "chaos.transient",
        ]
        for record in result.benchmarks[:2]:
            assert record.qor["area_um2"] > 0

    def test_chaos_records_pin_resilience_accounting(self):
        result = run_suite("flow", fast=True, dimension=DIM)
        by_name = {record.name: record for record in result.benchmarks}
        null = by_name["chaos.null"]
        # The null-plan contract: a resilient runner with chaos off must
        # not retry, inject or fail anything.
        assert null.qor["retries"] == 0.0
        assert null.qor["faults_injected"] == 0.0
        assert null.qor["failures"] == 0.0
        transient = by_name["chaos.transient"]
        # Injected flakes all recover, and recovery replays the same
        # values (the checksum matches the fault-free grid bitwise).
        assert transient.qor["faults_injected"] > 0
        assert transient.qor["retries"] == transient.qor["faults_injected"]
        assert transient.qor["failures"] == 0.0
        assert transient.qor["checksum"] == null.qor["checksum"]

    def test_clustering_suite_runs_and_pins_verification(self):
        # The committed profile is 50k neurons; the harness test only
        # exercises the machinery, so override the dimension down.
        result = run_suite("clustering", dimension=96)
        assert result.mode == "scale"
        assert [r.name for r in result.benchmarks] == [
            "scale.generate",
            "scale.cluster",
            "scale.map",
            "scale.verify",
        ]
        by_name = {record.name: record for record in result.benchmarks}
        assert by_name["scale.generate"].qor["connections"] > 0
        assert by_name["scale.map"].qor["netlist_cells"] > 0
        # The invariants the gate pins: verification must stay clean.
        assert by_name["scale.verify"].qor["failed_checks"] == 0.0
        assert by_name["scale.verify"].qor["violations"] == 0.0

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_suite("placement")

    def test_every_suite_has_a_baseline_file(self):
        assert set(BASELINE_FILES) == set(SUITES)
        assert BASELINE_FILES["service"] == "BENCH_service.json"
        assert BASELINE_FILES["clustering"] == "BENCH_clustering.json"


class TestMetricGate:
    def test_throughput_metrics_never_gate(self):
        assert metric_gate("throughput_rps") == "never"
        assert metric_gate("requests_per_second") == "never"

    def test_wall_clock_metrics_gate_only_on_time_threshold(self):
        assert metric_gate("p50_latency_seconds") == "time"
        assert metric_gate("p99_latency_seconds") == "time"

    def test_deterministic_metrics_always_gate(self):
        assert metric_gate("requests") == "always"
        assert metric_gate("miss_ratio") == "always"
        assert metric_gate("wirelength_um") == "always"

    def test_gate_policy_applied_by_comparison(self, routing_suite):
        baseline = copy.deepcopy(routing_suite)
        record = baseline.benchmarks[0]
        candidate = copy.deepcopy(routing_suite)
        # A throughput drop and a latency spike, both machine noise.
        record.qor["throughput_rps"] = 1000.0
        candidate.benchmarks[0].qor["throughput_rps"] = 10.0
        record.qor["p99_latency_seconds"] = 0.001
        candidate.benchmarks[0].qor["p99_latency_seconds"] = 1.0
        assert compare_to_baseline(candidate, baseline) == []
        # The latency spike does gate once a time threshold is given;
        # the throughput drop still never does.
        failures = compare_to_baseline(
            candidate, baseline, time_threshold_pct=50.0
        )
        assert failures
        assert all("latency" in f for f in failures)


class TestSchema:
    def test_round_trip(self, routing_suite, tmp_path):
        path = tmp_path / BASELINE_FILES["routing"]
        write_suite_json(routing_suite, path)
        loaded = load_suite_json(path)
        assert loaded.to_dict() == routing_suite.to_dict()
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION

    def test_version_mismatch_rejected(self, routing_suite):
        payload = routing_suite.to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            suite_result_from_dict(payload)

    def test_missing_field_rejected(self, routing_suite):
        payload = routing_suite.to_dict()
        del payload["dimension"]
        with pytest.raises(ValueError, match="dimension"):
            suite_result_from_dict(payload)


class TestRegressionGate:
    def test_self_comparison_passes(self, routing_suite):
        assert compare_to_baseline(routing_suite, routing_suite) == []

    def test_qor_regression_detected(self, routing_suite):
        baseline = copy.deepcopy(routing_suite)
        # Pretend the baseline was much better than the candidate.
        scale = 1.0 + 2 * DEFAULT_THRESHOLD_PCT / 100.0
        for record in baseline.benchmarks:
            record.qor["wirelength_um"] /= scale
        failures = compare_to_baseline(routing_suite, baseline)
        assert failures
        assert all("wirelength_um" in f for f in failures)

    def test_counter_regression_detected(self, routing_suite):
        baseline = copy.deepcopy(routing_suite)
        for record in baseline.benchmarks:
            record.counters["routing.heap_pushes"] /= 10.0
        assert compare_to_baseline(routing_suite, baseline)

    def test_within_threshold_passes(self, routing_suite):
        baseline = copy.deepcopy(routing_suite)
        for record in baseline.benchmarks:
            record.qor["wirelength_um"] /= 1.0 + DEFAULT_THRESHOLD_PCT / 300.0
        assert compare_to_baseline(routing_suite, baseline) == []

    def test_mode_mismatch_detected(self, routing_suite):
        baseline = copy.deepcopy(routing_suite)
        baseline.mode = "full"
        failures = compare_to_baseline(routing_suite, baseline)
        assert failures and "parameters" in failures[0]

    def test_missing_benchmark_detected(self, routing_suite):
        candidate = copy.deepcopy(routing_suite)
        candidate.benchmarks = candidate.benchmarks[:1]
        failures = compare_to_baseline(candidate, routing_suite)
        assert any("disappeared" in f for f in failures)

    def test_wall_time_not_gated_by_default(self, routing_suite):
        baseline = copy.deepcopy(routing_suite)
        for record in baseline.benchmarks:
            record.wall_seconds /= 1000.0
        assert compare_to_baseline(routing_suite, baseline) == []
        assert compare_to_baseline(
            routing_suite, baseline, time_threshold_pct=50.0
        )


class TestCli:
    ARGS = ["--suites", "routing", "--fast",
            "--dimension", str(DIM), "--testbenches", "1"]

    def test_write_then_check_round_trips(self, tmp_path, capsys):
        base = ["--baseline-dir", str(tmp_path)] + self.ARGS
        assert main(base) == 0
        assert (tmp_path / BASELINE_FILES["routing"]).exists()
        assert main(base + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "OK routing" in out

    def test_check_without_baseline_fails(self, tmp_path, capsys):
        assert main(["--baseline-dir", str(tmp_path), "--check"] + self.ARGS) == 1
        assert "no baseline" in capsys.readouterr().out

    def test_check_detects_doctored_baseline(self, tmp_path, capsys):
        base = ["--baseline-dir", str(tmp_path)] + self.ARGS
        assert main(base) == 0
        path = tmp_path / BASELINE_FILES["routing"]
        payload = json.loads(path.read_text())
        for record in payload["benchmarks"]:
            record["qor"]["wirelength_um"] /= 10.0
        path.write_text(json.dumps(payload))
        assert main(base + ["--check"]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_check_and_update_are_exclusive(self, tmp_path, capsys):
        status = main(
            ["--baseline-dir", str(tmp_path), "--check", "--update-baseline"]
            + self.ARGS
        )
        assert status == 2

    def test_update_baseline_writes(self, tmp_path):
        assert main(
            ["--baseline-dir", str(tmp_path), "--update-baseline"] + self.ARGS
        ) == 0
        assert load_suite_json(tmp_path / BASELINE_FILES["routing"]).mode == "fast"
