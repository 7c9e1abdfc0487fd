"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.networks import random_sparse_network
from repro.networks.io import save_network_npz


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.neurons == 160
        assert args.seed == 42

    def test_testbench_index_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["testbench", "4"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.kind == "compare"
        assert args.cache_dir == ".repro-cache"
        assert not args.no_cache

    def test_sweep_kind_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--kind", "explode"])

    def test_reliability_jobs_flag(self):
        args = build_parser().parse_args(["reliability", "--jobs", "3"])
        assert args.jobs == 3

    def test_compare_testbench_accepts_tb_prefix(self):
        assert build_parser().parse_args(["compare", "--testbench", "tb1"]).testbench == 1
        assert build_parser().parse_args(["compare", "--testbench", "2"]).testbench == 2

    def test_compare_testbench_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--testbench", "tb9"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--testbench", "nope"])

    def test_observability_flags_default_off(self):
        for command in ("compare", "verify"):
            args = build_parser().parse_args([command])
            assert args.trace is None and args.metrics is None


class TestCommands:
    def test_cluster_on_small_network(self, capsys):
        code = main(["cluster", "--neurons", "60", "--density", "0.08", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "crossbars:" in out
        assert "discrete synapses:" in out

    def test_compare_fast(self, capsys):
        code = main([
            "compare", "--fast", "--neurons", "70", "--density", "0.08", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AutoNCS" in out and "FullCro" in out

    def test_cluster_loads_saved_network(self, tmp_path, capsys):
        net = random_sparse_network(50, 0.1, rng=3, name="saved")
        path = tmp_path / "net.npz"
        save_network_npz(net, path)
        code = main(["cluster", "--load", str(path), "--seed", "3"])
        assert code == 0
        assert "saved" in capsys.readouterr().out

    def test_render(self, tmp_path, capsys):
        net = random_sparse_network(40, 0.1, rng=4, name="r")
        src = tmp_path / "net.npz"
        out = tmp_path / "net.svg"
        save_network_npz(net, src)
        code = main(["render", str(src), "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("<?xml")

    def test_render_clustered(self, tmp_path):
        rng = np.random.default_rng(5)
        net = random_sparse_network(40, 0.12, rng=rng, name="rc")
        src = tmp_path / "net.npz"
        out = tmp_path / "net.svg"
        save_network_npz(net, src)
        code = main(["render", str(src), "--output", str(out), "--clustered"])
        assert code == 0
        assert "svg" in out.read_text()

    def test_render_missing_network_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["render", str(tmp_path / "nope.npz")])

    def test_reliability_end_to_end(self, capsys):
        code = main([
            "reliability", "--dimension", "60", "--samples", "2",
            "--rates", "0.0", "0.3", "--seed", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reliability experiment" in out
        assert "yield(raw)" in out and "yield(rep)" in out
        # one table row per swept rate
        assert "0.000" in out and "0.300" in out

    def test_reliability_jobs_match_serial(self, capsys):
        argv = ["reliability", "--dimension", "60", "--samples", "2",
                "--rates", "0.0", "0.3", "--seed", "9"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_compare_jobs_match_serial(self, capsys):
        argv = ["compare", "--fast", "--neurons", "48",
                "--density", "0.08", "--seed", "2"]

        def cost_lines(text):
            # drop the stage-seconds block: wall times differ run to run
            return [line for line in text.splitlines()
                    if not line.startswith(("stage seconds", "  "))]

        assert main(argv) == 0
        serial = cost_lines(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = cost_lines(capsys.readouterr().out)
        assert parallel == serial


class TestObservability:
    """The acceptance path: compare on a testbench with trace + metrics."""

    def test_compare_testbench_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.txt"
        code = main([
            "compare", "--testbench", "tb1", "--dimension", "48", "--fast",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert f"metrics written to {metrics}" in out

        events = json.loads(trace.read_text())  # Perfetto-loadable
        names = {event["name"] for event in events}
        for stage in ("flow.cluster", "flow.map", "flow.place",
                      "flow.route", "flow.evaluate"):
            assert stage in names, f"missing {stage} span"
        assert all(event["ph"] == "X" for event in events)

        dump = metrics.read_text()
        assert "routing.ripup_retries" in dump
        assert "placement.wa_evals" in dump
        assert "cache.hit_rate" in dump

    def test_verify_with_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.txt"
        code = main([
            "verify", "--neurons", "48", "--density", "0.08", "--seed", "3",
            "--fast", "--checks", "coverage", "hardware",
            "--metrics", str(metrics),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert "isc.runs" in metrics.read_text()

    def test_no_flags_leaves_null_recorder(self, capsys):
        from repro.observability import NULL_RECORDER, get_recorder

        code = main(["compare", "--fast", "--neurons", "48",
                     "--density", "0.08", "--seed", "2"])
        assert code == 0
        assert get_recorder() is NULL_RECORDER
        assert NULL_RECORDER.tracer.spans == []


class TestSweepCommand:
    ARGS = ["sweep", "--sizes", "30", "40", "--densities", "0.08",
            "--fast", "--seed", "11"]

    def test_end_to_end_with_cache_and_trace(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        trace = tmp_path / "trace.jsonl"
        code = main(self.ARGS + ["--cache-dir", str(cache_dir),
                                 "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cell(s): 2 executed, 0 cache hit(s)" in out
        assert trace.exists() and trace.read_text().count("\n") >= 4

        # warm rerun: everything served from the cache
        code = main(self.ARGS + ["--cache-dir", str(cache_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cell(s): 0 executed, 2 cache hit(s)" in out

    def test_no_cache_always_executes(self, tmp_path, capsys):
        for _ in range(2):
            code = main(self.ARGS + ["--no-cache"])
            assert code == 0
            assert "2 executed, 0 cache hit(s)" in capsys.readouterr().out

    def test_clear_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(self.ARGS + ["--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        code = main(self.ARGS + ["--cache-dir", str(cache_dir), "--clear-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cleared 2 cached artifact(s)" in out
        assert "2 executed" in out

    def test_deterministic_across_jobs(self, tmp_path, capsys):
        def table(extra):
            assert main(self.ARGS + ["--no-cache"] + extra) == 0
            out = capsys.readouterr().out
            # keep the grid rows; timing columns are stripped per row
            rows = [line.split()[:5] for line in out.splitlines()
                    if line.strip().startswith(("30", "40"))]
            assert rows
            return rows

        assert table([]) == table(["--jobs", "4"])

    def test_chaos_transient_recovers_identically(self, tmp_path, capsys):
        def table(extra):
            assert main(self.ARGS + ["--no-cache"] + extra) == 0
            out = capsys.readouterr().out
            rows = [line.split()[:5] for line in out.splitlines()
                    if line.strip().startswith(("30", "40"))]
            assert rows
            return rows

        clean = table([])
        chaotic = table(["--chaos", "transient@job.run:until=1",
                         "--retries", "3"])
        assert clean == chaotic

    def test_resume_flag_requires_cache(self, capsys):
        code = main(self.ARGS + ["--no-cache", "--resume"])
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_serves_finished_cells(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        base = ["sweep", "--densities", "0.08", "--fast", "--seed", "11",
                "--cache-dir", str(cache_dir), "--journal", str(journal)]
        # "killed" run: only the first cell completed
        assert main(base + ["--sizes", "30"]) == 0
        capsys.readouterr()
        assert journal.exists()
        code = main(base + ["--sizes", "30", "40", "--resume"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cell(s): 1 executed, 1 cache hit(s)" in out

    def test_persistent_chaos_reports_failure_exit_one(self, capsys):
        code = main(self.ARGS + ["--no-cache", "--chaos", "error@job.run",
                                 "--retries", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "ChaosError" in captured.err
