"""Flow-wide observability: tracing spans, typed metrics, exporters.

Zero-dependency instrumentation layer for the AutoNCS flow:

* :class:`Span` / :class:`Tracer` — hierarchical, thread-safe timed
  regions, opened as context managers;
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` in a
  process-local :class:`MetricsRegistry`, read as immutable
  :class:`MetricsSnapshot` objects;
* :class:`Recorder` — the handle bundling both, installed with
  :func:`recording` / :func:`set_recorder` and read by every
  instrumented hot path through :func:`get_recorder`;
* exporters — :func:`write_chrome_trace` (Perfetto /
  ``chrome://tracing`` loadable), :func:`write_metrics_text` and the
  per-stage :func:`format_qor_table`.

The default recorder is :data:`NULL_RECORDER`, a shared no-op — see
DESIGN.md for the overhead contract that keeps disabled instrumentation
out of the flow's critical path.
"""

from repro.observability.export import (
    chrome_trace_events,
    format_qor_table,
    read_chrome_trace,
    write_chrome_trace,
    write_metrics_text,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.observability.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    recording,
    set_recorder,
)
from repro.observability.spans import Span, Tracer

__all__ = [
    "NULL_RECORDER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRecorder",
    "Recorder",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "format_qor_table",
    "get_recorder",
    "read_chrome_trace",
    "recording",
    "set_recorder",
    "write_chrome_trace",
    "write_metrics_text",
]
