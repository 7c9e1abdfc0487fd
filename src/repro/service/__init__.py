"""repro.service — mapping-as-a-service over the runtime engine.

An async job layer that serves the AutoNCS flows over HTTP/JSON,
entirely from the standard library:

* :class:`JobRequest` / :class:`JobRecord` — content-described jobs
  (``map`` / ``compare`` / ``verify`` / ``sweep``) keyed by network
  digest + config hash + seed, so identical submissions deduplicate;
* :class:`MappingService` — the transport-independent core: dedup,
  a bounded priority queue with backpressure, worker threads running
  jobs through the resilient cache-aware
  :class:`~repro.runtime.runner.Runner`, per-job progress traces and
  service metrics (queue depth, in-flight, hit ratio, p50/p99 latency);
* :class:`ServiceServer` (:mod:`repro.service.http`) — the stdlib
  ``ThreadingHTTPServer`` transport (``python -m repro serve``);
* :class:`ServiceClient` (:mod:`repro.service.client`) — the matching
  ``urllib`` client.

Quickstart
----------
>>> from repro.service import ServiceConfig, ServiceServer
>>> from repro.service.client import ServiceClient
>>> with ServiceServer(ServiceConfig(workers=2)) as server:  # doctest: +SKIP
...     client = ServiceClient(server.url)
...     done = client.submit({"kind": "map", "neurons": 48}, wait=True)
"""

from repro.service.engine import (
    MappingService,
    ServiceConfig,
    summarize_result,
)
from repro.service.http import ServiceServer
from repro.service.jobs import (
    BadRequestError,
    JOB_KINDS,
    JobRecord,
    JobRequest,
    TERMINAL_STATES,
)
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue, QueueFullError

__all__ = [
    "BadRequestError",
    "JOB_KINDS",
    "JobQueue",
    "JobRecord",
    "JobRequest",
    "MappingService",
    "QueueFullError",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceServer",
    "TERMINAL_STATES",
    "summarize_result",
]
