"""compare.py verdicts on synthetic samples."""

import json

import compare
import pytest

BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_identical_samples_are_the_same():
    assert compare.verdict(BASE, list(BASE), 0.05, "lower") == "same"


def test_a_consistent_gain_is_better():
    assert compare.verdict(BASE, [v * 0.8 for v in BASE], 0.05, "lower") == "better"


def test_the_direction_follows_better():
    lower = [v * 0.8 for v in BASE]
    assert compare.verdict(BASE, lower, 0.05, "higher") == "worse"
    assert compare.verdict(lower, BASE, 0.05, "higher") == "better"


def test_a_regression_beyond_the_bound_is_worse():
    assert compare.verdict(BASE, [v * 1.2 for v in BASE], 0.05, "lower") == "worse"


def test_a_regression_within_the_bound_is_the_same():
    assert compare.verdict(BASE, [v * 1.02 for v in BASE], 0.05, "lower") == "same"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert compare.verdict(BASE, noisy, 0.05, "lower") == "unresolved"
    assert compare.verdict(noisy, BASE, 0.05, "lower") == "unresolved"


def test_every_new_run_better_than_every_base_run_overrides_a_wide_spread():
    base = [20.0, 30.0, 25.0, 35.0]
    assert compare.verdict(base, [1.0, 2.0, 1.5, 2.5], 0.05, "lower") == "better"


def test_a_gain_needs_nine_of_ten_pairs():
    eight_wins = [9.0] * 8 + [10.5] * 2
    assert compare.verdict([10.0] * 10, eight_wins, 0.2, "lower") == "same"
    nine_wins = [9.0] * 9 + [10.5]
    assert compare.verdict([10.0] * 10, nine_wins, 0.2, "lower") == "better"


def test_a_gain_must_exceed_the_base_spread():
    wide = [8.0, 12.0] * 5
    assert compare.verdict(wide, [v - 0.5 for v in wide], 0.5, "lower") == "same"


def test_quartiles_follow_statistics_quantiles():
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _write(directory, workload, seed, metrics, trace=0, failed=0):
    directory.mkdir(parents=True, exist_ok=True)
    result = {"correct": not failed, "attempted": 1, "failed": failed,
              "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}
    path = directory / f"{workload}.seed{seed}.trace{trace}.0.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                "result": result}))


@pytest.fixture
def declared(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "flow_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}))
    return path


def test_main_prints_a_verdict_per_metric_and_workload(tmp_path, declared, capsys):
    for seed in range(5):
        for workload in ("a", "b"):
            _write(tmp_path / "base", workload, seed, {"flow_s": 10.0 + seed / 10, "setup_s": 1.0})
            slower = 1.5 if workload == "b" else 1.0
            _write(tmp_path / "new", workload, seed,
                   {"flow_s": (10.0 + seed / 10) * slower, "setup_s": 1.0})
        _write(tmp_path / "new", "a", seed, {"flow_s": 99.0, "setup_s": 9.0}, trace=1)
    status = compare.main([str(tmp_path / "base"), str(tmp_path / "new"),
                           "--benchmark", str(declared)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert {(row[0], row[1]): row[-1] for row in rows} == {
        ("a", "flow_s"): "same", ("a", "setup_s"): "same",
        ("b", "flow_s"): "worse", ("b", "setup_s"): "same",
    }
    assert status == 1


def test_a_failed_run_makes_its_workload_invalid(tmp_path, declared, capsys):
    for seed in range(10):
        _write(tmp_path / "base", "a", seed, {"flow_s": 10.0, "setup_s": 1.0})
        # Fewer networks verified, so less time: it must not read as a gain.
        _write(tmp_path / "new", "a", seed, {"flow_s": 5.0, "setup_s": 1.0},
               failed=1 if seed == 3 else 0)
    status = compare.main([str(tmp_path / "base"), str(tmp_path / "new"),
                           "--benchmark", str(declared)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[-1] for row in rows] == ["invalid", "invalid"]
    assert status == 1
