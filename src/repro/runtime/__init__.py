"""repro.runtime — parallel, cache-aware execution engine for sweeps.

The runtime turns independent (network, config, seed) flow runs into
:class:`Job` objects and executes them through a :class:`Runner`:

* jobs fan out over a ``ProcessPoolExecutor`` with spawn-safe per-job
  RNGs (``numpy.random.SeedSequence.spawn``), so ``n_jobs=1`` and
  ``n_jobs=8`` produce bitwise-identical results;
* an :class:`ArtifactCache` content-addresses finished results on
  (network digest, config hash, seed, package version), so re-running a
  sweep only executes changed cells;
* an :class:`EventLog` records a structured JSONL trace (job started /
  finished / cache hits, per-stage wall times) and can drive a terminal
  :class:`ProgressPrinter`;
* a :class:`ResilienceConfig` adds per-job timeouts, deterministic
  retry/backoff, pool respawn with poison-job quarantine and partial
  :class:`SweepResult`\\ s with structured :class:`JobFailure` records,
  while a :class:`SweepJournal` makes sweeps crash-safe and resumable;
* a :class:`FaultPlan` (:mod:`repro.runtime.chaos`) injects
  deterministic faults — worker death, stage errors, hangs, transient
  flakes, cache corruption — to exercise all of the above, at zero cost
  when disabled.

Quickstart
----------
>>> from repro.runtime import Runner, SweepSpec
>>> from repro.core.config import fast_config
>>> spec = SweepSpec(sizes=(40, 60), densities=(0.08,),
...                  config=fast_config(), seed=7)
>>> sweep = Runner(n_jobs=1).run_sweep(spec)  # doctest: +SKIP
>>> sweep.executed  # doctest: +SKIP
2
"""

from repro.runtime.cache import DEFAULT_CACHE_DIR, ArtifactCache, job_cache_key
from repro.runtime.chaos import (
    ChaosError,
    FaultPlan,
    FaultRule,
    chaos_point,
    chaos_scope,
)
from repro.runtime.events import (
    EventLog,
    ProgressPrinter,
    follow_trace,
    tail_trace,
)
from repro.runtime.jobs import Job, JobResult, SweepSpec
from repro.runtime.resilience import (
    JobFailure,
    ResilienceConfig,
    RetryPolicy,
    SweepJournal,
    UnknownJobKindError,
)
from repro.runtime.runner import (
    Runner,
    SweepResult,
    register_executor,
    registered_kinds,
)

__all__ = [
    "ArtifactCache",
    "ChaosError",
    "DEFAULT_CACHE_DIR",
    "EventLog",
    "FaultPlan",
    "FaultRule",
    "Job",
    "JobFailure",
    "JobResult",
    "ProgressPrinter",
    "ResilienceConfig",
    "RetryPolicy",
    "Runner",
    "SweepJournal",
    "SweepResult",
    "SweepSpec",
    "UnknownJobKindError",
    "chaos_point",
    "chaos_scope",
    "follow_trace",
    "job_cache_key",
    "tail_trace",
    "register_executor",
    "registered_kinds",
]
