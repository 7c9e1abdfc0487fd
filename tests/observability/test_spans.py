"""Unit tests for spans, the tracer, and the recorder scoping protocol."""

from __future__ import annotations

import os

from repro.observability import (
    NULL_RECORDER,
    Recorder,
    get_recorder,
    recording,
    set_recorder,
)
from repro.observability.spans import Span, Tracer


class TestTracer:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", wires=3):
                pass
        inner, outer = tracer.spans
        assert (inner.name, inner.parent, inner.depth) == ("inner", "outer", 1)
        assert (outer.name, outer.parent, outer.depth) == ("outer", None, 0)
        assert inner.attributes == {"wires": 3}
        assert inner.duration is not None and inner.duration >= 0
        assert outer.duration >= inner.duration
        assert inner.pid == os.getpid()

    def test_span_completes_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.named("failing")[0].duration is not None

    def test_annotate_mid_span(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.annotate(found=7)
        assert tracer.spans[0].attributes["found"] == 7

    def test_event_is_instantaneous(self):
        tracer = Tracer()
        with tracer.span("outer"):
            event = tracer.event("tick", phase=2)
        assert event.duration == 0.0
        assert event.parent == "outer"

    def test_export_absorb_round_trip(self):
        source, sink = Tracer(), Tracer()
        with source.span("job", index=4):
            pass
        sink.absorb(source.export())
        span = sink.named("job")[0]
        assert isinstance(span, Span)
        assert span.attributes == {"index": 4}

    def test_span_dict_round_trip(self):
        with Tracer().span("x", a=1) as span:
            pass
        assert Span.from_dict(span.to_dict()) == span


class TestRecorderScoping:
    def test_default_is_null_recorder(self):
        recorder = get_recorder()
        assert recorder is NULL_RECORDER
        assert not recorder.enabled

    def test_null_recorder_records_nothing(self):
        null = NULL_RECORDER
        with null.span("anything") as span:
            span.annotate(ignored=True)
        null.count("c")
        null.gauge("g", 1.0)
        null.observe("h", 1.0)
        assert null.tracer.spans == []
        assert null.snapshot().empty

    def test_recording_installs_and_restores(self):
        assert get_recorder() is NULL_RECORDER
        with recording() as recorder:
            assert get_recorder() is recorder
            assert recorder.enabled
            recorder.count("n", 2)
        assert get_recorder() is NULL_RECORDER
        assert recorder.snapshot().get("n") == 2

    def test_recording_restores_on_exception(self):
        try:
            with recording():
                raise ValueError("boom")
        except ValueError:
            pass
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_returns_previous(self):
        mine = Recorder()
        previous = set_recorder(mine)
        try:
            assert get_recorder() is mine
        finally:
            assert set_recorder(previous) is mine
        assert get_recorder() is previous

    def test_recorder_absorb_worker_state(self):
        worker = Recorder()
        with worker.span("runner.job", index=1):
            worker.count("routing.ripup_retries", 3)
        driver = Recorder()
        driver.count("routing.ripup_retries", 1)
        driver.absorb(worker.export_state())
        assert driver.snapshot().get("routing.ripup_retries") == 4
        assert driver.tracer.named("runner.job")

