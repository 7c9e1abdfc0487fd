"""Service-level metrics: counters, gauges and a latency reservoir.

Everything the load-balancer dashboard would want from a serving stack
in one thread-safe object: request/outcome counters, queue depth and
in-flight gauges, the cache-hit ratio, and p50/p99 latency over a
bounded reservoir of recent completions.  Every update is mirrored into
the current observability recorder (``service.*`` counters/gauges and a
``service.latency_seconds`` histogram), so ``--metrics`` dumps and
worker-absorbed snapshots see the service the same way they see the
flow — and cost nothing when the null recorder is installed.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Optional

import numpy as np

from repro.observability import get_recorder

#: Completions kept for the latency percentiles (enough for stable
#: p99 at bench scale without unbounded growth).
RESERVOIR_SIZE = 8192


class ServiceMetrics:
    """Thread-safe service counters + latency percentiles."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._latencies: deque = deque(maxlen=RESERVOIR_SIZE)
        self.started = time.time()

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment the service counter ``name`` (mirrored to the recorder)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
        get_recorder().count(f"service.{name}", n)

    def gauge(self, name: str, value: float) -> None:
        """Publish a point-in-time service gauge."""
        get_recorder().gauge(f"service.{name}", value)

    def observe_latency(self, seconds: float) -> None:
        """Record one request's submission-to-completion latency."""
        with self._lock:
            self._latencies.append(float(seconds))
        get_recorder().observe("service.latency_seconds", seconds)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    def snapshot(self, queue_depth: int = 0, in_flight: int = 0,
                 cache: Optional[Any] = None) -> Dict[str, Any]:
        """One JSON-compatible stats view (the ``GET /stats`` body)."""
        with self._lock:
            counters = dict(self._counters)
            latencies = list(self._latencies)
        p50, p99 = np.percentile(latencies, (50.0, 99.0)) if latencies else (0.0, 0.0)
        requests = counters.get("requests", 0)
        hits = counters.get("cache_hits", 0) + counters.get("dedup_coalesced", 0)
        stats: Dict[str, Any] = {
            "uptime_seconds": time.time() - self.started,
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "counters": counters,
            "cache_hit_ratio": (hits / requests) if requests else 0.0,
            "latency": {
                "count": len(latencies),
                "p50_seconds": float(p50),
                "p99_seconds": float(p99),
                "max_seconds": max(latencies) if latencies else 0.0,
            },
        }
        if cache is not None:
            stats["cache"] = {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": getattr(cache, "evictions", 0),
                "max_bytes": getattr(cache, "max_bytes", None),
            }
        return stats
