"""MappingService engine: dedup, queueing, workers, cancel, metrics."""

from __future__ import annotations

import threading

import pytest

from repro.runtime.jobs import Job
from repro.service import (
    JobQueue,
    JobRequest,
    MappingService,
    QueueFullError,
    ServiceConfig,
)
from repro.service.loadtest import LoadReport
from repro.service.metrics import ServiceMetrics


def make_service(tmp_path, workers=1, **overrides):
    config = ServiceConfig(
        workers=workers, cache_dir=tmp_path / "cache", **overrides
    )
    return MappingService(config)


MAP_REQUEST = {"kind": "map", "neurons": 24, "density": 0.2}


class TestDedup:
    def test_identical_in_flight_submissions_coalesce(self, tmp_path):
        # The satellite contract: two identical submissions while the
        # job is queued return the SAME job id, and the pipeline runs
        # exactly once — proven by the artifact cache holding exactly
        # one stored result.
        service = make_service(tmp_path, workers=1)
        request = JobRequest.from_dict(MAP_REQUEST)
        first, coalesced_first = service.submit(request)
        second, coalesced_second = service.submit(
            JobRequest.from_dict(dict(MAP_REQUEST))
        )
        assert not coalesced_first and coalesced_second
        assert first.job_id == second.job_id
        assert first.submissions == 2
        assert service.metrics.counter("dedup_coalesced") == 1

        service.start()
        try:
            record = service.wait(first.job_id, timeout=120)
        finally:
            service.stop()
        assert record.state == "done"
        assert len(service.cache) == 1  # stored once: one execution
        assert service.metrics.counter("jobs_executed") == 1

    def test_completed_record_serves_later_submissions(self, tmp_path):
        service = make_service(tmp_path, workers=1)
        service.start()
        try:
            first, _ = service.submit(JobRequest.from_dict(MAP_REQUEST))
            service.wait(first.job_id, timeout=120)
            again, coalesced = service.submit(JobRequest.from_dict(MAP_REQUEST))
        finally:
            service.stop()
        assert coalesced and again.job_id == first.job_id
        assert service.metrics.counter("cache_hits") >= 1

    def test_restarted_service_serves_from_the_artifact_cache(self, tmp_path):
        first_service = make_service(tmp_path, workers=1)
        first_service.start()
        try:
            record, _ = first_service.submit(JobRequest.from_dict(MAP_REQUEST))
            first_service.wait(record.job_id, timeout=120)
        finally:
            first_service.stop()

        # A cold process: no retained records, but the shared cache
        # serves the result without re-running the flow.
        second_service = make_service(tmp_path, workers=1)
        second_service.start()
        try:
            fresh, coalesced = second_service.submit(
                JobRequest.from_dict(MAP_REQUEST)
            )
            done = second_service.wait(fresh.job_id, timeout=120)
        finally:
            second_service.stop()
        assert not coalesced  # new record...
        assert done.state == "done" and done.cache_hit  # ...but no execution
        assert second_service.metrics.counter("jobs_executed") == 0

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        service = make_service(tmp_path, workers=1)
        first, _ = service.submit(JobRequest.from_dict(MAP_REQUEST))
        second, coalesced = service.submit(
            JobRequest.from_dict({**MAP_REQUEST, "seed": 7})
        )
        assert not coalesced and first.job_id != second.job_id


class TestBackpressureAndCancel:
    def test_queue_full_rejects_with_retry_hint(self, tmp_path):
        service = make_service(tmp_path, workers=1, max_queue=2)
        service.submit(JobRequest.from_dict(MAP_REQUEST))
        service.submit(JobRequest.from_dict({**MAP_REQUEST, "seed": 1}))
        with pytest.raises(QueueFullError) as excinfo:
            service.submit(JobRequest.from_dict({**MAP_REQUEST, "seed": 2}))
        assert excinfo.value.depth == 2
        assert excinfo.value.retry_after_seconds > 0
        assert service.metrics.counter("queue_rejections") == 1
        # The rejected submission left no record behind.
        assert len(service.jobs()) == 2

    def test_cancel_queued_job_frees_its_key(self, tmp_path):
        service = make_service(tmp_path, workers=1)
        record, _ = service.submit(JobRequest.from_dict(MAP_REQUEST))
        assert service.cancel(record.job_id)
        assert record.state == "cancelled"
        assert service.wait(record.job_id, timeout=1).terminal
        # A cancelled record does not satisfy new submissions.
        fresh, coalesced = service.submit(JobRequest.from_dict(MAP_REQUEST))
        assert not coalesced and fresh.job_id != record.job_id

    def test_cancel_unknown_or_terminal_is_false(self, tmp_path):
        service = make_service(tmp_path, workers=1)
        assert not service.cancel("nope")
        record, _ = service.submit(JobRequest.from_dict(MAP_REQUEST))
        service.cancel(record.job_id)
        assert not service.cancel(record.job_id)


class TestExecution:
    def test_sweep_request_runs_the_grid(self, tmp_path):
        service = make_service(tmp_path, workers=1)
        service.start()
        try:
            record, _ = service.submit(
                JobRequest.from_dict(
                    {"kind": "sweep", "sizes": [16, 20], "densities": [0.2]}
                )
            )
            done = service.wait(record.job_id, timeout=240)
        finally:
            service.stop()
        assert done.state == "done"
        payload = service.result_payload(done)
        assert payload["result"]["kind"] == "sweep"
        assert len(payload["result"]["cells"]) == 2
        assert len(service.cache) == 2  # one artifact per grid cell

    def test_verify_request_returns_a_report(self, tmp_path):
        service = make_service(tmp_path, workers=1)
        service.start()
        try:
            record, _ = service.submit(
                JobRequest.from_dict({**MAP_REQUEST, "kind": "verify"})
            )
            done = service.wait(record.job_id, timeout=120)
        finally:
            service.stop()
        assert done.state == "done"
        assert service.result_payload(done)["result"]["passed"] is True

    def test_job_events_trace_is_written_and_tailable(self, tmp_path):
        from repro.runtime import tail_trace

        service = make_service(tmp_path, workers=1)
        service.start()
        try:
            record, _ = service.submit(JobRequest.from_dict(MAP_REQUEST))
            service.wait(record.job_id, timeout=120)
        finally:
            service.stop()
        events, _offset = tail_trace(record.events_path)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "sweep_started"
        assert "job_finished" in kinds
        assert kinds[-1] == "sweep_finished"

    def test_failed_job_is_recorded_not_raised(self, tmp_path, monkeypatch):
        request = JobRequest.from_dict(MAP_REQUEST)
        _work, key = request.materialize()
        poison = Job(kind="no-such-executor", label="boom", payload={}, seed=1)
        monkeypatch.setattr(
            JobRequest, "materialize", lambda self: (poison, key)
        )
        service = make_service(tmp_path, workers=1)
        service.start()
        try:
            record, _ = service.submit(request)
            done = service.wait(record.job_id, timeout=60)
        finally:
            service.stop()
        assert done.state == "failed"
        assert "no-such-executor" in done.error
        assert service.metrics.counter("failed") == 1
        # A failed record does not satisfy new submissions.
        monkeypatch.undo()
        fresh, coalesced = service.submit(JobRequest.from_dict(MAP_REQUEST))
        assert not coalesced and fresh.job_id != record.job_id

    def test_priority_orders_the_queue(self, tmp_path):
        # Submit while the workers are down, then start: the
        # high-priority job must run first.
        service = make_service(tmp_path, workers=1)
        low, _ = service.submit(
            JobRequest.from_dict({**MAP_REQUEST, "seed": 1, "priority": 0})
        )
        high, _ = service.submit(
            JobRequest.from_dict({**MAP_REQUEST, "seed": 2, "priority": 5})
        )
        service.start()
        try:
            service.wait(low.job_id, timeout=120)
            service.wait(high.job_id, timeout=120)
        finally:
            service.stop()
        assert high.started <= low.started

    def test_stats_snapshot_shape(self, tmp_path):
        service = make_service(tmp_path, workers=1)
        service.start()
        try:
            record, _ = service.submit(JobRequest.from_dict(MAP_REQUEST))
            service.wait(record.job_id, timeout=120)
        finally:
            service.stop()
        stats = service.stats()
        assert stats["queue_depth"] == 0
        assert stats["counters"]["completed"] == 1
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["p99_seconds"] >= stats["latency"]["p50_seconds"] >= 0
        assert stats["cache"]["entries"] == 1


class TestJobQueue:
    def test_priority_then_fifo_order(self):
        queue = JobQueue(max_depth=8)
        queue.put("a", priority=0)
        queue.put("b", priority=5)
        queue.put("c", priority=0)
        queue.put("d", priority=5)
        order = [queue.get(timeout=0.1) for _ in range(4)]
        assert order == ["b", "d", "a", "c"]

    def test_put_beyond_capacity_raises(self):
        queue = JobQueue(max_depth=1)
        queue.put("a")
        with pytest.raises(QueueFullError):
            queue.put("b")

    def test_removed_ids_are_skipped_and_free_capacity(self):
        queue = JobQueue(max_depth=2)
        queue.put("a")
        queue.put("b")
        queue.remove("a")
        assert queue.depth == 1
        queue.put("c")  # capacity freed by the lazy removal
        assert queue.get(timeout=0.1) == "b"
        assert queue.get(timeout=0.1) == "c"
        assert queue.get(timeout=0.05) is None

    def test_get_wakes_on_concurrent_put(self):
        queue = JobQueue(max_depth=2)
        got = []

        def consume():
            got.append(queue.get(timeout=5.0))

        thread = threading.Thread(target=consume)
        thread.start()
        queue.put("late")
        thread.join(timeout=5.0)
        assert got == ["late"]

    def test_rejects_silly_depth(self):
        with pytest.raises(ValueError):
            JobQueue(max_depth=0)


class TestServiceMetrics:
    def test_percentile_interpolates(self):
        def snapshot_percentiles(values):
            metrics = ServiceMetrics()
            for value in values:
                metrics.observe_latency(value)
            latency = metrics.snapshot()["latency"]
            return latency["p50_seconds"], latency["p99_seconds"]

        def load_report_percentiles(values):
            report = LoadReport(latencies_seconds=list(values))
            return report.p50_seconds, report.p99_seconds

        for percentiles in (snapshot_percentiles, load_report_percentiles):
            # Linear interpolation between closest ranks, in any arrival order.
            assert percentiles([4.0, 1.0, 3.0, 2.0]) == pytest.approx((2.5, 3.97))
            assert percentiles([]) == (0.0, 0.0)
            assert percentiles([7.0]) == (7.0, 7.0)

    def test_snapshot_hit_ratio(self):
        metrics = ServiceMetrics()
        metrics.count("requests", 10)
        metrics.count("cache_hits", 6)
        metrics.count("dedup_coalesced", 3)
        metrics.observe_latency(0.1)
        metrics.observe_latency(0.3)
        snapshot = metrics.snapshot(queue_depth=2, in_flight=1)
        assert snapshot["cache_hit_ratio"] == pytest.approx(0.9)
        assert snapshot["queue_depth"] == 2
        assert snapshot["latency"]["count"] == 2
        assert snapshot["latency"]["max_seconds"] == pytest.approx(0.3)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ServiceConfig(workers=-1)
        with pytest.raises(ValueError):
            ServiceConfig(keep_records=0)
