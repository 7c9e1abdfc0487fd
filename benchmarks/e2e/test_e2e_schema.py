"""BENCHMARK.json is well formed and matches what the runner emits."""

import json
import re
from pathlib import Path

import measure
import pytest
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"][0] == "python3"
    assert all(arg.startswith("benchmarks/e2e/") for arg in BENCHMARK["command"][1:])
    assert (ROOT / BENCHMARK["command"][1]).is_file()
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_match_the_runner():
    declared = BENCHMARK["workloads"]
    assert 2 <= len(declared) <= 8
    for entry in declared:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [w["name"] for w in declared] == [w.name for w in workloads.WORKLOADS]


@pytest.mark.parametrize("section, limit", [("end_to_end", 16), ("per_layer", 128)])
def test_metric_entries(section, limit):
    entries = BENCHMARK[section]
    assert 1 <= len(entries) <= limit
    keys = {"name", "unit", "better", "bound"} if section == "end_to_end" else {
        "name", "unit", "better"}
    for entry in entries:
        assert set(entry) == keys
        assert NAME.fullmatch(entry["name"]) and UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
        if section == "end_to_end":
            assert 0 < entry["bound"] <= 0.25


def test_names_are_unique():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))


def test_setup_time_is_declared():
    setup = next(entry for entry in BENCHMARK["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("section, trace", [("end_to_end", 0), ("per_layer", 1)])
def test_every_emitted_metric_is_declared_and_every_declared_one_emitted(
    section, trace, tiny, no_warm_up
):
    result, _ = measure.run_workload(tiny, 5, 0.01, trace, no_warm_up, 0.0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
