"""Tests for the parallel, cache-aware runner and sweep specs.

The two load-bearing contracts:

* determinism — a sweep's numbers are bitwise-identical for any
  ``n_jobs`` (seeds are fixed at job construction, not execution);
* warm cache — rerunning an executed sweep serves every cell from disk
  (100 % hits, zero executions).
"""

import pytest

from repro.core.config import fast_config
from repro.runtime import (
    ArtifactCache,
    EventLog,
    Job,
    Runner,
    SweepSpec,
    register_executor,
    registered_kinds,
)

FAST = fast_config()


def small_spec(**overrides):
    params = dict(sizes=(30, 40), densities=(0.08,), seed=11,
                  kind="compare", config=FAST, name="t")
    params.update(overrides)
    return SweepSpec(**params)


def reduction_rows(result):
    return [
        (row["size"], row["density"], row["wirelength_reduction"],
         row["area_reduction"], row["delay_reduction"])
        for row in result.cell_rows()
    ]


class TestSweepSpec:
    def test_cells_row_major(self):
        spec = small_spec(sizes=(30, 40), densities=(0.05, 0.08))
        assert spec.cells() == [(30, 0.05), (30, 0.08), (40, 0.05), (40, 0.08)]
        assert len(spec) == 4

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="sizes"):
            small_spec(sizes=(1,))
        with pytest.raises(ValueError, match="sizes"):
            small_spec(sizes=())

    def test_rejects_bad_densities(self):
        with pytest.raises(ValueError, match="densities"):
            small_spec(densities=(0.0,))
        with pytest.raises(ValueError, match="densities"):
            small_spec(densities=(1.5,))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            small_spec(kind="explode")

    def test_jobs_carry_cache_keys_and_distinct_seeds(self):
        jobs = small_spec().jobs()
        assert all(job.cacheable for job in jobs)
        assert len({job.key["network"] for job in jobs}) == len(jobs)
        assert all(job.key["config"] == FAST.cache_key() for job in jobs)

    def test_jobs_are_reproducible(self):
        first, second = small_spec().jobs(), small_spec().jobs()
        assert [j.key for j in first] == [j.key for j in second]


class TestRunner:
    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            Runner(n_jobs=0)

    def test_rejects_nan_or_fractional_n_jobs(self):
        # 2.5 used to run two workers through ``int(n_jobs)``.
        for value in (float("nan"), 2.5):
            with pytest.raises(ValueError, match="n_jobs must be a whole number"):
                Runner(n_jobs=value)
        assert type(Runner(n_jobs=2.0).n_jobs) is int

    def test_unknown_kind_raises_with_label(self):
        runner = Runner()
        with pytest.raises(RuntimeError, match="mystery"):
            runner.run([Job(kind="no-such-kind", label="mystery")])

    def test_failing_job_raises_with_label(self):
        register_executor("boom", _raise)
        try:
            with pytest.raises(RuntimeError, match="bad cell"):
                Runner().run([Job(kind="boom", label="bad cell")])
        finally:
            registered_kinds()  # registry intentionally keeps "boom"

    def test_events_cover_lifecycle(self):
        events = EventLog()
        result = Runner(events=events).run_sweep(small_spec(sizes=(30,)))
        assert len(result.results) == 1
        assert [e["event"] for e in events.events] == [
            "sweep_started", "job_started", "job_finished", "sweep_finished",
        ]
        finished = events.of_kind("job_finished")[0]
        assert finished["cache_hit"] is False
        assert finished["stage_seconds"]  # flow diagnostics re-exported

    def test_trace_file_is_jsonl(self, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        with EventLog(trace_path=trace) as events:
            Runner(events=events).run_sweep(small_spec(sizes=(30,)))
        lines = trace.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "sweep_started"
        assert records[-1]["event"] == "sweep_finished"

    def test_deterministic_across_n_jobs(self):
        spec = small_spec()
        serial = Runner(n_jobs=1).run_sweep(spec)
        parallel = Runner(n_jobs=4).run_sweep(spec)
        assert reduction_rows(serial) == reduction_rows(parallel)

    def test_warm_cache_serves_everything(self, tmp_path):
        spec = small_spec()
        cache = ArtifactCache(tmp_path)
        cold = Runner(cache=cache).run_sweep(spec)
        assert cold.executed == len(spec) and cold.cache_hits == 0
        warm = Runner(cache=cache).run_sweep(spec)
        assert warm.cache_hits == len(spec) and warm.executed == 0
        assert reduction_rows(cold) == reduction_rows(warm)

    def test_cache_ignores_renamed_sweep_but_not_reseeded(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        Runner(cache=cache).run_sweep(small_spec())
        reseeded = Runner(cache=cache).run_sweep(small_spec(seed=12))
        assert reseeded.cache_hits == 0  # new seed -> new networks -> miss

    def test_format_table_mentions_cache_state(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        result = Runner(cache=cache).run_sweep(small_spec(sizes=(30,)))
        table = result.format_table()
        assert "miss" in table and "1 executed" in table
        warm = Runner(cache=cache).run_sweep(small_spec(sizes=(30,)))
        assert "hit" in warm.format_table()

    def test_autoncs_kind_reports_costs(self):
        result = Runner().run_sweep(small_spec(sizes=(30,), kind="autoncs"))
        row = result.cell_rows()[0]
        assert row["wirelength_um"] > 0
        assert row["area_um2"] > 0


def _raise(rng, **payload):
    raise ValueError("synthetic failure")
