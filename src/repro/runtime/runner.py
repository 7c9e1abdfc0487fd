"""The parallel, cache-aware, failure-resilient job runner.

:class:`Runner` fans a list of :class:`~repro.runtime.jobs.Job` out over
a ``concurrent.futures.ProcessPoolExecutor`` (or runs them inline at
``n_jobs=1``).  Four properties make it safe to parallelize the AutoNCS
flows:

* **Determinism** — every job carries its own seed material, fixed at
  job construction (``SeedSequence.spawn`` or an explicit child seed);
  the worker expands it with ``numpy.random.default_rng``.  Scheduling,
  worker count, completion order *and retries* therefore cannot perturb
  results: ``n_jobs=1`` and ``n_jobs=8`` are bitwise-identical, and a
  job that succeeds on its third attempt returns the same artifact it
  would have returned on its first.
* **Caching** — with an :class:`~repro.runtime.cache.ArtifactCache`, the
  runner serves finished cells from disk and only executes changed ones.
* **Resilience** — with a :class:`~repro.runtime.resilience.
  ResilienceConfig`, failing jobs are retried with exponential backoff
  and deterministic jitter, hung jobs are preempted at a wall-clock
  deadline (the pool is killed and respawned), a worker death
  (``BrokenProcessPool``) triggers suspect isolation and poison-job
  quarantine, and exhausted jobs leave structured
  :class:`~repro.runtime.resilience.JobFailure` records so the sweep
  returns *partial* results instead of aborting.  A
  :class:`~repro.runtime.resilience.SweepJournal` makes progress
  crash-safe and sweeps resumable.  Without an explicit config the
  legacy contract holds: one attempt, first failure raises.
* **Observability** — every job emits ``job_started`` /
  ``job_finished`` / ``job_retry`` / ``job_timeout`` / ``worker_crash``
  / ``job_quarantined`` / ``job_failed`` events through an
  :class:`~repro.runtime.events.EventLog`.

Executors are plain module-level functions registered under a *kind*
string, so jobs pickle as data and the work function resolves inside
the worker process regardless of the start method (fork or spawn).
Fault injection (:mod:`repro.runtime.chaos`) threads through the same
boundary: the plan ships with the job and is re-installed inside the
worker, so chaos decisions are identical on every path.
"""

from __future__ import annotations

import heapq
import os
import time as _time
from collections import deque
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability import get_recorder, recording
from repro.runtime.cache import ArtifactCache
from repro.runtime.chaos import (
    ChaosHang,
    ChaosWorkerCrash,
    FaultPlan,
    chaos_point,
    chaos_scope,
)
from repro.runtime.events import EventLog
from repro.runtime.jobs import Job, JobResult, SweepSpec
from repro.runtime.resilience import (
    LEGACY,
    JobFailure,
    ResilienceConfig,
    SweepJournal,
    UnknownJobKindError,
)
from repro.utils.canonical import stable_hash

#: kind -> executor(rng=..., **payload).  Module-level so that worker
#: processes rebuild it on import, even under the 'spawn' start method.
_EXECUTORS: Dict[str, Callable[..., Any]] = {}


def register_executor(kind: str, fn: Callable[..., Any]) -> None:
    """Register (or replace) the executor behind a job kind."""
    if not callable(fn):
        raise TypeError(f"executor for {kind!r} must be callable")
    _EXECUTORS[kind] = fn


def registered_kinds() -> List[str]:
    """The currently registered job kinds (sorted)."""
    return sorted(_EXECUTORS)


# ----------------------------------------------------------------------
# Built-in executors
# ----------------------------------------------------------------------
def _run_compare(network, config, rng):
    from repro.core.autoncs import AutoNCS

    return AutoNCS(config).compare(network, rng=rng)


def _run_autoncs(network, config, rng):
    from repro.core.autoncs import AutoNCS

    return AutoNCS(config).run(network, rng=rng)


def _run_fullcro(network, config, rng):
    from repro.core.autoncs import AutoNCS

    return AutoNCS(config).run_baseline(network, rng=rng)


def _run_yield_trial(rng, **payload):
    from repro.reliability.yield_eval import execute_trial

    return execute_trial(**payload)


register_executor("compare", _run_compare)
register_executor("autoncs", _run_autoncs)
register_executor("fullcro", _run_fullcro)
register_executor("yield_trial", _run_yield_trial)


def _job_stage_seconds(value: Any) -> Dict[str, float]:
    """Per-stage wall times of a flow result, when it carries any.

    Reads :attr:`PhysicalDesign.stage_seconds` of a design, of an
    ``AutoNcsResult``'s design, or of both flows of a ``ComparisonReport``
    (prefixed ``autoncs.`` / ``fullcro.``), so events re-export where the
    time went.
    """
    from repro.core.report import ComparisonReport
    from repro.physical.layout import PhysicalDesign

    if isinstance(value, ComparisonReport):
        return {
            f"{flow.lower()}.{stage}": seconds
            for flow, times in value.stage_seconds().items()
            for stage, seconds in times.items()
        }
    design = getattr(value, "design", value)
    return design.stage_seconds if isinstance(design, PhysicalDesign) else {}


def _chaos_token(job: Job) -> Optional[str]:
    """Stable per-job token folded into chaos/backoff decisions."""
    if job.seed is None:
        return None
    return stable_hash({"label": job.label, "seed": job.seed})


def _execute_job(
    index: int,
    job: Job,
    record: bool = False,
    chaos: Optional[FaultPlan] = None,
    attempt: int = 0,
    in_worker: bool = False,
) -> Tuple[int, Any, float, Optional[Dict[str, Any]]]:
    """Worker entry point: run one job (one attempt) and time it.

    Top-level (picklable) on purpose; the executor registry is rebuilt
    by module import inside the worker.  ``chaos`` (the pickled fault
    plan) and ``attempt`` travel with the call so injected faults are a
    deterministic function of the job's identity — see
    :mod:`repro.runtime.chaos`.

    The job runs inside a ``runner.job`` span, whose duration is the
    returned seconds.  With ``record=True`` (the pool path when the
    driver is tracing) the job runs under a fresh
    :class:`~repro.observability.Recorder` and the picklable
    observability state travels back as the fourth element; the driver
    folds it in with :meth:`Recorder.absorb`.  Inline jobs pass
    ``record=False`` — they write directly to the driver's current
    recorder — so the returned state is ``None``.

    Raises :class:`UnknownJobKindError` (structured: job label + the
    registered kinds) instead of a bare ``KeyError`` when the job names
    an unregistered executor; the runner records it as a non-retryable
    :class:`JobFailure` rather than crashing the worker.
    """
    try:
        fn = _EXECUTORS[job.kind]
    except KeyError:
        raise UnknownJobKindError(job.label, job.kind, registered_kinds()) from None
    rng = None if job.seed is None else np.random.default_rng(job.seed)
    with chaos_scope(
        chaos,
        label=job.label,
        attempt=attempt,
        token=_chaos_token(job),
        in_worker=in_worker,
    ):
        chaos_point("job.run")
        with (recording() if record else nullcontext(get_recorder())) as recorder:
            with recorder.span(
                "runner.job", label=job.label, kind=job.kind, index=index
            ) as span:
                value = fn(rng=rng, **job.payload)
            state = recorder.export_state() if record else None
    return index, value, span.duration, state


def default_n_jobs() -> int:
    """A sensible worker count: ``REPRO_N_JOBS`` env or the CPU count."""
    env = os.environ.get("REPRO_N_JOBS", "")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


@dataclass
class _JobState:
    """Mutable per-pending-job bookkeeping for the resilient paths."""

    index: int
    key: Optional[str]  # artifact-cache key
    jkey: str           # journal key (cache key, or a stable fallback)
    attempts: int = 0   # attempts fully charged (errors/timeouts/solo crashes)
    strikes: int = 0    # definitive worker crashes caused
    suspect: bool = False  # in-flight during a pool break; runs solo next


class Runner:
    """Executes jobs over a process pool with caching, events and retries.

    Parameters
    ----------
    n_jobs:
        Worker processes; ``1`` (default) runs inline in this process —
        no pool, no pickling, identical results.
    cache:
        Optional :class:`ArtifactCache`; cacheable jobs whose key is
        present are served from disk without executing.
    events:
        Optional :class:`EventLog` receiving the structured event stream.
    resilience:
        Optional :class:`ResilienceConfig` enabling retries, timeouts,
        pool respawn/quarantine and partial results.  ``None`` keeps the
        legacy contract (one attempt, first failure raises).
    chaos:
        Optional :class:`~repro.runtime.chaos.FaultPlan`; installed in
        the driver (cache sites) and shipped to every worker (job and
        flow-stage sites).  ``None`` is the zero-overhead default.
    journal:
        Optional :class:`SweepJournal`; every finished/failed cell is
        appended (fsynced) under its cache key, and ``run(...,
        resume=True)`` replays it to skip quarantined cells.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        cache: Optional[ArtifactCache] = None,
        events: Optional[EventLog] = None,
        resilience: Optional[ResilienceConfig] = None,
        chaos: Optional[FaultPlan] = None,
        journal: Optional[SweepJournal] = None,
    ) -> None:
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = int(n_jobs)
        self.cache = cache
        self.events = events if events is not None else EventLog()
        self.resilience = resilience
        self.chaos = chaos if (chaos is not None and chaos.rules) else None
        self.journal = journal

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job], resume: bool = False) -> List[JobResult]:
        """Execute ``jobs``; returns results in job order.

        Cache hits never execute; misses run inline or on the pool and
        are stored back.  Without a resilience config, the job's error
        (annotated with its label) is raised on failure.  With one,
        failed jobs come back as :class:`JobResult` entries whose
        ``failure`` field carries the structured :class:`JobFailure`.
        With ``resume=True`` and a journal, cells quarantined by an
        earlier (killed) run are skipped instead of re-poisoning the
        pool.
        """
        jobs = list(jobs)
        policy = self.resilience if self.resilience is not None else LEGACY
        journal_state = None
        if resume and self.journal is not None:
            journal_state = self.journal.load_state()
        self.events.emit("sweep_started", jobs=len(jobs), n_jobs=self.n_jobs)
        if journal_state:
            self.events.emit(
                "sweep_resumed",
                completed=len(journal_state.done),
                failed=len(journal_state.failed),
                quarantined=len(journal_state.quarantined),
                runs=journal_state.runs,
            )
        recorder = get_recorder()
        results: List[Optional[JobResult]] = [None] * len(jobs)
        pending: List[_JobState] = []
        with recorder.span("runner.sweep", jobs=len(jobs), n_jobs=self.n_jobs) as span:
            with chaos_scope(self.chaos, label="driver"):
                for index, job in enumerate(jobs):
                    key = self.cache.key_for(job) if self.cache is not None else None
                    state = _JobState(
                        index=index, key=key, jkey=self._journal_key(job, key, index)
                    )
                    if (
                        journal_state is not None
                        and state.jkey in journal_state.quarantined
                    ):
                        self._quarantined_on_resume(jobs, results, state)
                        continue
                    hit, value = (
                        self.cache.lookup(key) if key is not None else (False, None)
                    )
                    if hit:
                        results[index] = JobResult(
                            index=index,
                            label=job.label,
                            kind=job.kind,
                            value=value,
                            seconds=0.0,
                            cache_hit=True,
                            stage_seconds=_job_stage_seconds(value),
                        )
                        if self.journal is not None:
                            self.journal.job_done(
                                state.jkey, label=job.label, kind=job.kind,
                                status="cached", seconds=0.0, attempts=0,
                            )
                        self.events.emit(
                            "job_finished",
                            label=job.label,
                            kind=job.kind,
                            index=index,
                            seconds=0.0,
                            cache_hit=True,
                        )
                    else:
                        pending.append(state)
                if self.n_jobs == 1 or len(pending) <= 1:
                    self._run_inline(jobs, results, pending, policy)
                else:
                    self._run_pool(jobs, results, pending, policy)
            executed = len(pending)
            failures = sum(
                1 for result in results if result is not None and result.failure
            )
            recorder.count("runner.jobs_cached", len(jobs) - executed)
            span.annotate(
                executed=executed,
                cache_hits=len(jobs) - executed,
                failures=failures,
            )
        self.events.emit(
            "sweep_finished",
            jobs=len(jobs),
            executed=executed,
            cache_hits=len(jobs) - executed,
            failures=failures,
            seconds=span.duration,
        )
        return [result for result in results if result is not None]

    def run_sweep(self, spec: SweepSpec, resume: bool = False) -> "SweepResult":
        """Expand a :class:`SweepSpec` and execute it (optionally resuming)."""
        jobs = spec.jobs()
        sweep_key = spec.sweep_key()
        if self.journal is not None:
            self.journal.run_started(sweep_key, len(jobs), resumed=resume)
        results = self.run(jobs, resume=resume)
        return SweepResult(
            spec=spec, results=results, metadata={"sweep_key": sweep_key}
        )

    # ------------------------------------------------------------------
    # Shared failure machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _journal_key(job: Job, key: Optional[str], index: int) -> str:
        if key is not None:
            return key
        return stable_hash(
            {"kind": job.kind, "label": job.label, "index": index, "seed": job.seed}
        )

    def _quarantined_on_resume(
        self, jobs: List[Job], results: List[Optional[JobResult]], state: _JobState
    ) -> None:
        job = jobs[state.index]
        failure = JobFailure(
            index=state.index,
            label=job.label,
            kind=job.kind,
            failure="quarantined",
            message="quarantined by an earlier run (resume)",
            attempts=0,
        )
        results[state.index] = JobResult(
            index=state.index, label=job.label, kind=job.kind,
            value=None, failure=failure,
        )
        get_recorder().count("runner.quarantined_skips")
        self.events.emit(
            "job_skipped", label=job.label, kind=job.kind,
            index=state.index, reason="quarantined",
        )

    @staticmethod
    def _classify(exc: BaseException, policy: ResilienceConfig,
                  seconds: float) -> str:
        if isinstance(exc, UnknownJobKindError):
            return "unknown-kind"
        if isinstance(exc, (ChaosHang, TimeoutError)):
            return "timeout"
        if isinstance(exc, (ChaosWorkerCrash, BrokenExecutor)):
            return "crash"
        if (
            policy.timeout_seconds is not None
            and seconds >= policy.timeout_seconds
        ):
            return "timeout"
        return "error"

    def _fail(
        self,
        jobs: List[Job],
        results: List[Optional[JobResult]],
        state: _JobState,
        policy: ResilienceConfig,
        failure_kind: str,
        message: str,
        seconds: float = 0.0,
        quarantined: bool = False,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Record a terminal failure (or raise it, under fail-fast)."""
        job = jobs[state.index]
        failure = JobFailure(
            index=state.index,
            label=job.label,
            kind=job.kind,
            failure="quarantined" if quarantined else failure_kind,
            message=message,
            attempts=max(1, state.attempts),
            seconds=seconds,
        )
        recorder = get_recorder()
        recorder.count("runner.failures")
        recorder.count(f"runner.failures.{failure.failure}")
        if self.journal is not None:
            self.journal.job_failed(state.jkey, failure=failure,
                                    quarantined=quarantined)
        self.events.emit(
            "job_failed",
            label=job.label,
            kind=job.kind,
            index=state.index,
            failure=failure.failure,
            message=message,
            attempts=failure.attempts,
        )
        if policy.fail_fast:
            if isinstance(cause, UnknownJobKindError):
                raise cause
            raise RuntimeError(
                f"job {job.label!r} (kind={job.kind!r}) failed: {message}"
            ) from cause
        results[state.index] = JobResult(
            index=state.index, label=job.label, kind=job.kind,
            value=None, seconds=seconds, failure=failure,
            attempts=failure.attempts,
        )

    def _charge_attempt(
        self,
        jobs: List[Job],
        results: List[Optional[JobResult]],
        state: _JobState,
        policy: ResilienceConfig,
        failure_kind: str,
        message: str,
        seconds: float,
        cause: Optional[BaseException] = None,
    ) -> Optional[float]:
        """One attempt failed; returns the backoff before the next, or
        ``None`` when the failure is terminal (recorded/raised)."""
        job = jobs[state.index]
        state.attempts += 1
        if failure_kind == "crash":
            state.strikes += 1
            if state.strikes >= policy.quarantine_after:
                self.events.emit(
                    "job_quarantined", label=job.label, index=state.index,
                    strikes=state.strikes,
                )
                get_recorder().count("runner.quarantined")
                self._fail(jobs, results, state, policy, "crash", message,
                           seconds, quarantined=True, cause=cause)
                return None
        if failure_kind == "unknown-kind" or (
            state.attempts >= policy.retry.max_attempts
        ):
            self._fail(jobs, results, state, policy, failure_kind, message,
                       seconds, cause=cause)
            return None
        backoff = policy.retry.backoff_seconds(state.attempts - 1, token=state.jkey)
        get_recorder().count("runner.retries")
        self.events.emit(
            "job_retry",
            label=job.label,
            kind=job.kind,
            index=state.index,
            attempt=state.attempts,
            backoff_seconds=backoff,
            reason=failure_kind,
        )
        return backoff

    # ------------------------------------------------------------------
    # Inline execution (n_jobs == 1)
    # ------------------------------------------------------------------
    def _run_inline(
        self,
        jobs: List[Job],
        results: List[Optional[JobResult]],
        pending: List[_JobState],
        policy: ResilienceConfig,
    ) -> None:
        for state in pending:
            job = jobs[state.index]
            while True:
                self.events.emit(
                    "job_started", label=job.label, kind=job.kind,
                    index=state.index, attempt=state.attempts,
                )
                started = _time.monotonic()
                try:
                    _idx, value, seconds, obs_state = _execute_job(
                        state.index, job, record=False, chaos=self.chaos,
                        attempt=state.attempts,
                    )
                except Exception as exc:
                    seconds = _time.monotonic() - started
                    failure_kind = self._classify(exc, policy, seconds)
                    if failure_kind == "timeout":
                        get_recorder().count("runner.timeouts")
                        self.events.emit(
                            "job_timeout", label=job.label, index=state.index,
                            attempt=state.attempts, seconds=seconds,
                        )
                    backoff = self._charge_attempt(
                        jobs, results, state, policy, failure_kind,
                        f"{type(exc).__name__}: {exc}", seconds, cause=exc,
                    )
                    if backoff is None:
                        break
                    _time.sleep(backoff)
                    continue
                self._finish(
                    jobs, results, state, value, seconds, obs_state,
                )
                break

    # ------------------------------------------------------------------
    # Pool execution
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        jobs: List[Job],
        results: List[Optional[JobResult]],
        pending: List[_JobState],
        policy: ResilienceConfig,
    ) -> None:
        states = {state.index: state for state in pending}
        ready: deque = deque(state.index for state in pending)
        waiting: List[Tuple[float, int]] = []  # (due_monotonic, index) heap
        running: Dict[Any, Tuple[int, float]] = {}  # future -> (index, started)
        pool: Optional[ProcessPoolExecutor] = None
        record = get_recorder().enabled
        max_workers = min(self.n_jobs, len(pending))

        def submit(index: int) -> None:
            nonlocal pool
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=max_workers)
            job = jobs[index]
            state = states[index]
            self.events.emit(
                "job_started", label=job.label, kind=job.kind,
                index=index, attempt=state.attempts,
            )
            future = pool.submit(
                _execute_job, index, job, record, self.chaos,
                state.attempts, True,
            )
            running[future] = (index, _time.monotonic())

        def schedule_retry(index: int, backoff: float) -> None:
            heapq.heappush(waiting, (_time.monotonic() + backoff, index))

        def handle_failed_attempt(index: int, failure_kind: str,
                                  message: str, seconds: float,
                                  cause: Optional[BaseException]) -> None:
            backoff = self._charge_attempt(
                jobs, results, states[index], policy, failure_kind,
                message, seconds, cause=cause,
            )
            if backoff is not None:
                schedule_retry(index, backoff)

        try:
            while ready or waiting or running:
                now = _time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, index = heapq.heappop(waiting)
                    ready.append(index)
                # Submission: when any job is a crash suspect, it must run
                # in isolation — one suspect solo, nothing else — so a
                # repeat crash is attributable and innocents go free.
                suspects = [index for index in ready if states[index].suspect]
                if suspects:
                    if not running:
                        index = suspects[0]
                        ready.remove(index)
                        submit(index)
                else:
                    while ready and len(running) < max_workers:
                        submit(ready.popleft())
                if not running:
                    if waiting:
                        pause = max(0.0, waiting[0][0] - _time.monotonic())
                        if pause:
                            _time.sleep(min(pause, 0.5))
                    continue
                timeout = None
                if waiting:
                    timeout = max(0.0, waiting[0][0] - _time.monotonic())
                if policy.timeout_seconds is not None:
                    deadline = min(started for _i, started in running.values())
                    remaining = deadline + policy.timeout_seconds - _time.monotonic()
                    timeout = (
                        max(0.01, remaining) if timeout is None
                        else min(timeout, max(0.01, remaining))
                    )
                done, _ = wait(set(running), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                crashed = False
                for future in done:
                    index, started = running.pop(future)
                    seconds = _time.monotonic() - started
                    job = jobs[index]
                    state = states[index]
                    try:
                        _idx, value, job_seconds, obs_state = future.result()
                    except BrokenExecutor:
                        crashed = True
                        self._note_crash(
                            jobs, results, state, policy, seconds,
                            solo=len(running) == 0 and len(done) == 1,
                            ready=ready, schedule_retry=schedule_retry,
                        )
                    except Exception as exc:
                        failure_kind = self._classify(exc, policy, seconds)
                        handle_failed_attempt(
                            index, failure_kind,
                            f"{type(exc).__name__}: {exc}", seconds, exc,
                        )
                    else:
                        state.suspect = False
                        self._finish(jobs, results, state, value,
                                     job_seconds, obs_state)
                if crashed:
                    # The pool is broken: every other in-flight job would
                    # raise BrokenProcessPool too.  Requeue them all as
                    # suspects (uncharged — the culprit is ambiguous) and
                    # respawn the pool.
                    self.events.emit(
                        "worker_crash",
                        in_flight=len(running),
                        suspects=[jobs[i].label for i, _s in running.values()],
                    )
                    get_recorder().count("runner.worker_crashes")
                    for future, (index, _started) in list(running.items()):
                        states[index].suspect = True
                        ready.appendleft(index)
                    running.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    continue
                # Wall-clock deadline: kill the pool under any expired
                # job, charge the expired ones a timeout, requeue the
                # rest uncharged (the kill, not they, interrupted them).
                if policy.timeout_seconds is not None and running:
                    now = _time.monotonic()
                    expired = [
                        (future, index, started)
                        for future, (index, started) in running.items()
                        if now - started >= policy.timeout_seconds
                    ]
                    if expired:
                        expired_indexes = {index for _f, index, _s in expired}
                        for future, (index, started) in list(running.items()):
                            if index in expired_indexes:
                                seconds = now - started
                                get_recorder().count("runner.timeouts")
                                self.events.emit(
                                    "job_timeout", label=jobs[index].label,
                                    index=index, attempt=states[index].attempts,
                                    seconds=seconds,
                                )
                                handle_failed_attempt(
                                    index, "timeout",
                                    f"exceeded the {policy.timeout_seconds:g}s "
                                    "wall-clock budget", seconds, None,
                                )
                            else:
                                ready.appendleft(index)
                        running.clear()
                        self._kill_pool(pool)
                        pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _note_crash(
        self,
        jobs: List[Job],
        results: List[Optional[JobResult]],
        state: _JobState,
        policy: ResilienceConfig,
        seconds: float,
        solo: bool,
        ready: deque,
        schedule_retry,
    ) -> None:
        """A future raised ``BrokenProcessPool``.

        Running solo (suspect isolation, or simply the only in-flight
        job) makes the crash definitively attributable: charge it as a
        crash attempt/strike.  Otherwise mark the job a suspect and
        requeue it uncharged.
        """
        if solo:
            backoff = self._charge_attempt(
                jobs, results, state, policy, "crash",
                "worker process died (BrokenProcessPool)", seconds, cause=None,
            )
            if backoff is not None:
                state.suspect = True
                schedule_retry(state.index, backoff)
        else:
            state.suspect = True
            ready.appendleft(state.index)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool whose worker is hung (deadline expired)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def _finish(
        self,
        jobs: List[Job],
        results: List[Optional[JobResult]],
        state: _JobState,
        value: Any,
        seconds: float,
        obs_state: Optional[Dict[str, Any]] = None,
    ) -> None:
        job = jobs[state.index]
        attempts = state.attempts + 1
        recorder = get_recorder()
        recorder.absorb(obs_state)
        recorder.count("runner.jobs_executed")
        stage_seconds = _job_stage_seconds(value)
        results[state.index] = JobResult(
            index=state.index,
            label=job.label,
            kind=job.kind,
            value=value,
            seconds=seconds,
            cache_hit=False,
            stage_seconds=stage_seconds,
            attempts=attempts,
        )
        if self.cache is not None and state.key is not None:
            self.cache.store(
                state.key, value, meta={"label": job.label, "kind": job.kind}
            )
        if self.journal is not None:
            self.journal.job_done(
                state.jkey, label=job.label, kind=job.kind, status="ok",
                seconds=seconds, attempts=attempts,
            )
        self.events.emit(
            "job_finished",
            label=job.label,
            kind=job.kind,
            index=state.index,
            seconds=seconds,
            cache_hit=False,
            stage_seconds=stage_seconds,
            attempts=attempts,
        )


@dataclass
class SweepResult:
    """The outcome of one executed sweep grid (possibly partial)."""

    spec: SweepSpec
    results: List[JobResult]
    metadata: dict = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        """How many cells were served from the artifact cache."""
        return sum(1 for result in self.results if result.cache_hit)

    @property
    def executed(self) -> int:
        """How many cells actually ran the flow."""
        return len(self.results) - self.cache_hits

    @property
    def failures(self) -> List[JobFailure]:
        """Structured records of the cells that produced no value."""
        return [result.failure for result in self.results if result.failure]

    @property
    def succeeded(self) -> int:
        """How many cells carry a value (executed or cache-served)."""
        return len(self.results) - len(self.failures)

    def cell_rows(self) -> List[Dict[str, Any]]:
        """One scalar summary row per grid cell (for tables/JSON)."""
        rows = []
        for (size, density), result in zip(self.spec.cells(), self.results):
            row: Dict[str, Any] = {
                "size": size,
                "density": density,
                "label": result.label,
                "seconds": result.seconds,
                "cache_hit": result.cache_hit,
                "status": "failed" if result.failure else "ok",
            }
            if result.failure is not None:
                row["failure"] = result.failure.failure
                row["attempts"] = result.failure.attempts
                rows.append(row)
                continue
            value = result.value
            if self.spec.kind == "compare":
                row.update(
                    wirelength_reduction=value.wirelength_reduction,
                    area_reduction=value.area_reduction,
                    delay_reduction=value.delay_reduction,
                )
            else:
                design = getattr(value, "design", value)
                row.update(
                    wirelength_um=design.cost.wirelength_um,
                    area_um2=design.cost.area_um2,
                    delay_ns=design.cost.average_delay_ns,
                )
            rows.append(row)
        return rows

    def format_table(self) -> str:
        """A fixed-width text table over the grid cells."""
        rows = self.cell_rows()
        if self.spec.kind == "compare":
            header = (
                f"{'size':>6} {'density':>8} {'wl red':>8} {'area red':>9} "
                f"{'delay red':>10} {'seconds':>8} {'cache':>6}"
            )
            lines = [header, "-" * len(header)]
            for row in rows:
                if row["status"] == "failed":
                    lines.append(self._failed_line(row))
                    continue
                lines.append(
                    f"{row['size']:>6d} {row['density']:>8.3f} "
                    f"{row['wirelength_reduction']:>7.2f}% "
                    f"{row['area_reduction']:>8.2f}% "
                    f"{row['delay_reduction']:>9.2f}% "
                    f"{row['seconds']:>8.2f} "
                    f"{'hit' if row['cache_hit'] else 'miss':>6}"
                )
        else:
            header = (
                f"{'size':>6} {'density':>8} {'wirelength':>12} {'area':>12} "
                f"{'delay':>8} {'seconds':>8} {'cache':>6}"
            )
            lines = [header, "-" * len(header)]
            for row in rows:
                if row["status"] == "failed":
                    lines.append(self._failed_line(row))
                    continue
                lines.append(
                    f"{row['size']:>6d} {row['density']:>8.3f} "
                    f"{row['wirelength_um']:>12,.1f} {row['area_um2']:>12,.2f} "
                    f"{row['delay_ns']:>8.2f} {row['seconds']:>8.2f} "
                    f"{'hit' if row['cache_hit'] else 'miss':>6}"
                )
        summary = (
            f"{len(rows)} cell(s): {self.executed} executed, "
            f"{self.cache_hits} cache hit(s)"
        )
        if self.failures:
            summary += f", {len(self.failures)} FAILED"
        lines.append(summary)
        return "\n".join(lines)

    @staticmethod
    def _failed_line(row: Dict[str, Any]) -> str:
        return (
            f"{row['size']:>6d} {row['density']:>8.3f} "
            f"FAILED({row['failure']}, {row['attempts']} attempt(s))"
        )
