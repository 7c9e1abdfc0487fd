"""The recorder: one handle bundling a tracer and a metrics registry.

Everything in the flow records through the *current* recorder
(:func:`get_recorder`), which defaults to the shared :data:`NULL_RECORDER`
— a no-op subclass whose methods return immediately, so instrumentation
left in the hot paths costs a module-global read and an empty call when
observability is off (the repo's null-recorder overhead contract, see
DESIGN.md).  Its spans still time themselves: a span's ``duration`` is
the one clock for stage, job and benchmark times, recorder or not.

Enable recording for a region with::

    from repro.observability import Recorder, recording

    rec = Recorder()
    with recording(rec):
        AutoNCS().run(network, rng=7)
    rec.snapshot()            # MetricsSnapshot of every counter the flow hit
    rec.tracer.spans          # hierarchical spans for the Chrome trace

Process boundaries: the runtime's worker protocol creates a fresh
recorder inside each worker, pickles :meth:`Recorder.export_state` back
with the job result, and the driver folds it in with
:meth:`Recorder.absorb` — counters add, spans merge (distinguished by
``pid`` in the trace).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.observability.metrics import MetricsRegistry, MetricsSnapshot, Number
from repro.observability.spans import Span, Tracer


class Recorder:
    """An active tracing + metrics sink."""

    #: False only on the null recorder; hot paths may branch on this to
    #: skip per-item work (e.g. batched histogram observations).
    enabled: bool = True

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """Context manager: a named, timed, nested trace region."""
        return self.tracer.span(name, **attributes)

    def event(self, name: str, **attributes: Any) -> Optional[Span]:
        """An instantaneous trace event."""
        return self.tracer.event(name, **attributes)

    def count(self, name: str, n: Number = 1) -> None:
        """Increment the counter ``name`` by ``n``."""
        self.metrics.counter(name).inc(n)

    def gauge(self, name: str, value: Number) -> None:
        """Set the gauge ``name``."""
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: Number) -> None:
        """Record one histogram observation."""
        self.metrics.histogram(name).observe(value)

    def observe_many(self, name: str, values) -> None:
        """Record a batch of histogram observations in one call."""
        self.metrics.histogram(name).observe_many(values)

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Immutable read of every metric."""
        return self.metrics.snapshot()

    def export_state(self) -> Dict[str, Any]:
        """Picklable spans + metrics (the worker → driver payload)."""
        return {"spans": self.tracer.export(), "metrics": self.snapshot()}

    def absorb(self, state: Optional[Dict[str, Any]]) -> None:
        """Fold an :meth:`export_state` payload into this recorder."""
        if not state:
            return
        spans = state.get("spans")
        if spans:
            self.tracer.absorb(spans)
        metrics = state.get("metrics")
        if isinstance(metrics, MetricsSnapshot):
            self.metrics.absorb(metrics)


class _NullSpan:
    """A span the null recorder hands out: it times itself, and is dropped.

    Only ``duration`` is kept (the stage clock every consumer reads);
    attributes are discarded and the span is never added to a tracer.
    """

    __slots__ = ("_started", "duration")

    def __enter__(self) -> "_NullSpan":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration = time.perf_counter() - self._started

    def annotate(self, **attributes: Any) -> "_NullSpan":
        return self


class NullRecorder(Recorder):
    """The disabled recorder: every method except ``span`` is a no-op.

    A single shared instance (:data:`NULL_RECORDER`) backs every
    uninstrumented run.  ``span()`` returns a fresh two-slot
    :class:`_NullSpan` that measures its own duration and is never
    retained, so ``tracer.spans`` stays empty.
    """

    enabled = False

    def __init__(self) -> None:  # no tracer/registry allocation
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    def span(self, name: str, **attributes: Any):
        return _NullSpan()

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def count(self, name: str, n: Number = 1) -> None:
        return None

    def gauge(self, name: str, value: Number) -> None:
        return None

    def observe(self, name: str, value: Number) -> None:
        return None

    def observe_many(self, name: str, values) -> None:
        return None

    def absorb(self, state: Optional[Dict[str, Any]]) -> None:
        return None


#: The process-wide disabled recorder (default current recorder).
NULL_RECORDER = NullRecorder()

_current: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The recorder instrumentation currently writes to (never ``None``)."""
    return _current


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install ``recorder`` (``None`` → the null recorder); returns the old one."""
    global _current
    previous = _current
    _current = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Scope a recorder: install for the block, restore the previous after.

    ``recording()`` with no argument creates a fresh :class:`Recorder`.
    """
    active = recorder if recorder is not None else Recorder()
    previous = set_recorder(active)
    try:
        yield active
    finally:
        set_recorder(previous)
