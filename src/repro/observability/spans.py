"""Hierarchical tracing spans.

A :class:`Span` is one named, timed region of the flow — ``flow.run``
contains ``flow.isc`` … ``flow.cost``, which contain the fine-grained
regions of the physical engines.  The :class:`Tracer` keeps a per-thread
open-span stack (so nesting works under the runtime's thread use) and a
lock-protected list of completed spans; worker processes run their own
tracer and ship finished spans back to the driver as plain dicts, where
the differing ``pid`` keeps them distinguishable in the Chrome trace.

Timestamps are wall-clock (``time.time``) so spans from different
processes land on one comparable axis; durations are measured with
``time.perf_counter`` for resolution.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One completed (or still-open) trace region."""

    name: str
    start: float  # wall-clock epoch seconds
    duration: Optional[float] = None  # seconds; None while still open
    attributes: Dict[str, Any] = field(default_factory=dict)
    parent: Optional[str] = None
    depth: int = 0
    pid: int = 0
    tid: int = 0

    def annotate(self, **attributes: Any) -> "Span":
        """Attach attributes mid-span (e.g. counts known only at the end)."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Picklable plain-dict form (the worker → driver wire format)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "parent": self.parent,
            "depth": self.depth,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            start=data["start"],
            duration=data.get("duration"),
            attributes=dict(data.get("attributes", {})),
            parent=data.get("parent"),
            depth=int(data.get("depth", 0)),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
        )


class Tracer:
    """Collects spans; one per recorder, safe under threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[Span] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a named child span for the duration of the ``with`` block."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            name=name,
            start=time.time(),
            attributes=dict(attributes),
            parent=parent.name if parent is not None else None,
            depth=len(stack),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        stack.append(record)
        started = time.perf_counter()
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - started
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def event(self, name: str, **attributes: Any) -> Span:
        """Record an instantaneous (zero-duration) span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            name=name,
            start=time.time(),
            duration=0.0,
            attributes=dict(attributes),
            parent=parent.name if parent is not None else None,
            depth=len(stack),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(record)
        return record

    # ------------------------------------------------------------------
    def export(self) -> List[Dict[str, Any]]:
        """All completed spans as plain dicts (picklable, mergeable)."""
        with self._lock:
            return [span.to_dict() for span in self.spans]

    def absorb(self, spans: List[Dict[str, Any]]) -> None:
        """Fold exported spans (e.g. from a worker process) into this tracer."""
        rebuilt = [Span.from_dict(item) for item in spans]
        with self._lock:
            self.spans.extend(rebuilt)

    def named(self, name: str) -> List[Span]:
        """All completed spans with this exact name, in completion order."""
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def clear(self) -> None:
        """Drop all completed spans."""
        with self._lock:
            self.spans.clear()
