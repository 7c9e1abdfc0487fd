"""AutoNCS — an EDA framework for large-scale hybrid neuromorphic systems.

A faithful Python reproduction of Wen et al., "An EDA Framework for Large
Scale Hybrid Neuromorphic Computing Systems" (DAC 2015).  The library
covers the whole stack:

* :mod:`repro.networks` — connection matrices, QR-pattern Hopfield
  testbenches, LDPC and synthetic sparse networks;
* :mod:`repro.clustering` — MSC, GCP, traversing, crossbar preference, ISC;
* :mod:`repro.hardware` — technology/device/cell models and analog
  crossbar simulation;
* :mod:`repro.mapping` — netlists, the FullCro baseline, AutoNCS mapping;
* :mod:`repro.physical` — analytical placement, maze routing, cost;
* :mod:`repro.core` — the end-to-end :class:`~repro.core.autoncs.AutoNCS`
  pipeline;
* :mod:`repro.runtime` — parallel, cache-aware execution of sweeps over
  the flow (process pools, content-addressed artifact cache, events);
* :mod:`repro.observability` — flow-wide tracing spans, typed metrics
  and Perfetto/text exporters behind a zero-overhead null recorder;
* :mod:`repro.experiments` — every table and figure of the paper.

Public API
----------
The stable facade (see :mod:`repro.api`) is four keyword-only
functions, one options dataclass, plus the observability surface:

>>> import repro
>>> from repro.networks import random_sparse_network
>>> network = random_sparse_network(100, 0.05, rng=42)
>>> report = repro.compare(network, options=repro.FlowOptions(seed=42))
>>> report.wirelength_reduction  # doctest: +SKIP
41.3

Tracing a run:

>>> rec = repro.Recorder()
>>> with repro.recording(rec):
...     result = repro.map_network(network, options=repro.FlowOptions(seed=42))
>>> repro.write_chrome_trace(rec.tracer.spans, "trace.jsonl")  # doctest: +SKIP
"""

# The `repro.verify` *submodule* must be imported before the facade
# function `verify` is bound below: the import machinery sets the
# `verify` attribute on this package only at the submodule's first load,
# so eager-importing it here lets the function shadow the attribute
# while `import repro.verify` / `from repro.verify import ...` keep
# working through sys.modules.
import repro.verify  # noqa: F401  (eager submodule load, see above)
from repro.api import FlowOptions, compare, load_network, map_network, verify
from repro.core import AutoNCS, AutoNcsConfig, AutoNcsResult, ComparisonReport
from repro.core.config import fast_config
from repro.observability import (
    MetricsSnapshot,
    Recorder,
    get_recorder,
    recording,
    set_recorder,
    write_chrome_trace,
    write_metrics_text,
)

__version__ = "10.0.0"

__all__ = [
    "AutoNCS",
    "AutoNcsConfig",
    "AutoNcsResult",
    "ComparisonReport",
    "FlowOptions",
    "MetricsSnapshot",
    "Recorder",
    "__version__",
    "compare",
    "fast_config",
    "get_recorder",
    "load_network",
    "map_network",
    "recording",
    "set_recorder",
    "verify",
    "write_chrome_trace",
    "write_metrics_text",
]
