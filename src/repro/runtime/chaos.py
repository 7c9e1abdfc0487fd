"""Deterministic fault injection for the runtime engine.

Chaos testing only earns its keep when a failing run can be replayed
bit-for-bit.  A :class:`FaultPlan` therefore decides *deterministically*
— from its own seed, the injection site, the job's label, its seed
material and the attempt number — whether a named fault fires at an
instrumented site.  No mutable cross-process state is involved, so the
same plan makes the same decisions no matter how many workers execute
the sweep or in which order.

Fault taxonomy (``FaultRule.kind``):

``crash``
    Kills the worker process outright (``os._exit``), exercising the
    runner's ``BrokenProcessPool`` respawn and poison-job quarantine.
    Inline (no pool) it degrades to :class:`ChaosWorkerCrash` so the
    driver survives.
``error``
    Raises :class:`ChaosError` — a persistent stage exception.
``transient``
    Raises :class:`ChaosTransientError` on early attempts only
    (``until_attempt``), so bounded retries recover.
``hang``
    Sleeps ``hang_seconds`` (the runner's wall-clock timeout is expected
    to preempt it on the pool path) and then raises :class:`ChaosHang`
    so an inline run does not block forever.
``corrupt``
    A *data* fault: the site (e.g. ``ArtifactCache.store``) receives the
    matched rule back and corrupts its own payload.  Nothing is raised.

Injection sites call :func:`chaos_point`.  With no plan installed this
is one module-global read and a ``None`` check — the same zero-overhead
contract as the observability null recorder — so the instrumentation
stays in the production paths permanently.

Plans are installed with :func:`chaos_scope` (the runner does this in
the driver and re-installs the pickled plan inside each worker), and
described on the command line via :meth:`FaultPlan.parse`::

    --chaos transient                         # preset
    --chaos "crash@job.run:p=0.5;hang@stage.routing:hang=5"
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional, Tuple

from repro.observability import get_recorder

#: The recognised fault kinds, in documentation order.
FAULT_KINDS = ("crash", "error", "transient", "hang", "corrupt")

#: Every :func:`chaos_point` site in the package; a rule parsed from a
#: spec must match one of them (patterns may glob over them).
KNOWN_SITES = (
    "job.run",          # _execute_job, before the executor body
    "stage.isc",        # AutoNCS clustering stage
    "stage.mapping",    # AutoNCS mapping stage
    "stage.placement",  # AutoNCS placement stage
    "stage.routing",    # AutoNCS routing stage
    "cache.store",      # ArtifactCache.store (corrupt target)
)


class ChaosError(RuntimeError):
    """A persistent injected stage exception."""


class ChaosTransientError(ChaosError):
    """An injected failure that stops firing after ``until_attempt``."""


class ChaosHang(ChaosError):
    """Raised after an injected hang's sleep, so inline runs terminate."""


class ChaosWorkerCrash(ChaosError):
    """Inline stand-in for a worker-process death (no pool to kill)."""


@dataclass(frozen=True)
class FaultRule:
    """One named fault: where it fires, what it does, how often.

    Attributes
    ----------
    site:
        An ``fnmatch`` pattern over injection-site names (``"job.run"``,
        ``"stage.*"``, ``"cache.store"`` …).
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Deterministic firing probability in ``[0, 1]``; the draw is a
        stable hash of (plan seed, site, label, seed token, attempt), so
        it is reproducible across processes and execution orders.
    until_attempt:
        Fire only while ``attempt < until_attempt`` (``None`` = always).
        ``transient`` defaults to 1: the first attempt fails, retries
        succeed.
    hang_seconds:
        Sleep length for ``hang`` faults.
    """

    site: str
    kind: str
    probability: float = 1.0
    until_attempt: Optional[int] = None
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {FAULT_KINDS})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must lie in [0, 1], got {self.probability}"
            )
        if self.until_attempt is None and self.kind == "transient":
            object.__setattr__(self, "until_attempt", 1)


def _stable_unit(*parts: Any) -> float:
    """A deterministic draw in ``[0, 1)`` from hashed string parts."""
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of fault rules.

    The plan travels to worker processes alongside the job, so both the
    driver-side sites (cache) and the worker-side sites (job body, flow
    stages) see the same deterministic decisions.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __bool__(self) -> bool:
        return bool(self.rules)

    # ------------------------------------------------------------------
    def decide(
        self,
        site: str,
        *,
        label: str = "",
        attempt: int = 0,
        token: Any = None,
    ) -> Optional[FaultRule]:
        """The first rule firing at ``site`` for this context, if any."""
        for rule_index, rule in enumerate(self.rules):
            if not fnmatch.fnmatchcase(site, rule.site):
                continue
            if rule.until_attempt is not None and attempt >= rule.until_attempt:
                continue
            if rule.probability < 1.0:
                draw = _stable_unit(
                    self.seed, rule_index, site, label, token, attempt
                )
                if draw >= rule.probability:
                    continue
            return rule
        return None

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a CLI spec (preset name or rule grammar).

        Presets: ``transient``, ``crash``, ``hang``, ``error``,
        ``corrupt``, ``mixed``.  Grammar: ``;``-separated rules of the
        form ``kind@site[:key=value,...]`` with keys ``p`` (probability),
        ``until`` (attempt bound) and ``hang`` (seconds); ``site`` must
        ``fnmatch`` one of :data:`KNOWN_SITES`, so a typo fails here
        instead of building a plan that never fires::

            transient@job.run:p=0.5
            crash@job.run:p=0.3;corrupt@cache.store
        """
        text = spec.strip()
        preset = _PRESETS.get(text)
        if preset is not None:
            return cls(rules=preset, seed=seed)
        rules = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            head, _, options = chunk.partition(":")
            kind, _, site = head.partition("@")
            kind = kind.strip()
            site = site.strip() or "job.run"
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in chaos spec {spec!r} "
                    f"(known: {FAULT_KINDS}; presets: {sorted(_PRESETS)})"
                )
            if not any(fnmatch.fnmatchcase(known, site) for known in KNOWN_SITES):
                raise ValueError(
                    f"chaos site {site!r} in {chunk!r} matches no injection "
                    f"site (known: {KNOWN_SITES})"
                )
            rule = FaultRule(site=site, kind=kind)
            for option in filter(None, (o.strip() for o in options.split(","))):
                name, _, value = option.partition("=")
                if name == "p":
                    rule = replace(rule, probability=float(value))
                elif name == "until":
                    rule = replace(rule, until_attempt=int(value))
                elif name == "hang":
                    rule = replace(rule, hang_seconds=float(value))
                else:
                    raise ValueError(
                        f"unknown chaos rule option {name!r} in {chunk!r} "
                        "(known: p, until, hang)"
                    )
            rules.append(rule)
        if not rules:
            raise ValueError(f"empty chaos spec {spec!r}")
        return cls(rules=tuple(rules), seed=seed)


_PRESETS = {
    "transient": (FaultRule(site="job.run", kind="transient", probability=0.5),),
    "crash": (FaultRule(site="job.run", kind="crash", probability=0.3,
                        until_attempt=1),),
    "hang": (FaultRule(site="job.run", kind="hang", probability=0.3,
                       until_attempt=1, hang_seconds=30.0),),
    "error": (FaultRule(site="job.run", kind="error", probability=0.3),),
    "corrupt": (FaultRule(site="cache.store", kind="corrupt", probability=0.5),),
    "mixed": (
        FaultRule(site="job.run", kind="transient", probability=0.3),
        FaultRule(site="job.run", kind="crash", probability=0.15,
                  until_attempt=1),
        FaultRule(site="cache.store", kind="corrupt", probability=0.3),
    ),
}


# ----------------------------------------------------------------------
# The active plan (process-global, mirroring the observability recorder)
# ----------------------------------------------------------------------
@dataclass
class _ChaosContext:
    plan: FaultPlan
    label: str = ""
    attempt: int = 0
    token: Any = None
    in_worker: bool = False
    injected: int = field(default=0)


_ACTIVE: Optional[_ChaosContext] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None`` (chaos off)."""
    return None if _ACTIVE is None else _ACTIVE.plan


@contextmanager
def chaos_scope(
    plan: Optional[FaultPlan],
    *,
    label: str = "",
    attempt: int = 0,
    token: Any = None,
    in_worker: bool = False,
) -> Iterator[None]:
    """Install ``plan`` (with job context) for the duration of the block.

    ``plan=None`` (or an empty plan) is a true no-op — the previous
    context, usually none, stays installed and every
    :func:`chaos_point` remains a single global read.
    """
    global _ACTIVE
    if plan is None or not plan.rules:
        yield
        return
    previous = _ACTIVE
    _ACTIVE = _ChaosContext(
        plan=plan, label=label, attempt=attempt, token=token, in_worker=in_worker
    )
    try:
        yield
    finally:
        _ACTIVE = previous


def chaos_point(
    site: str,
    *,
    label: Optional[str] = None,
    attempt: Optional[int] = None,
) -> Optional[FaultRule]:
    """An injection site: trigger the plan's fault here, if one fires.

    Action faults (``crash``/``error``/``transient``/``hang``) raise or
    exit; data faults (``corrupt``) are returned to the caller, which
    applies the corruption itself.  Returns ``None`` when chaos is off
    or no rule fires — the permanent-instrumentation fast path.
    """
    context = _ACTIVE
    if context is None:
        return None
    rule = context.plan.decide(
        site,
        label=context.label if label is None else label,
        attempt=context.attempt if attempt is None else attempt,
        token=context.token,
    )
    if rule is None:
        return None
    context.injected += 1
    recorder = get_recorder()
    recorder.count("chaos.faults_injected")
    recorder.count(f"chaos.faults.{rule.kind}")
    if rule.kind == "corrupt":
        return rule
    if rule.kind == "crash":
        if context.in_worker:
            os._exit(43)  # hard death: no cleanup, no exception propagation
        raise ChaosWorkerCrash(
            f"injected worker crash at {site} (inline simulation)"
        )
    if rule.kind == "hang":
        time.sleep(rule.hang_seconds)
        raise ChaosHang(
            f"injected hang at {site} exceeded {rule.hang_seconds:g}s"
        )
    if rule.kind == "transient":
        raise ChaosTransientError(f"injected transient fault at {site}")
    raise ChaosError(f"injected fault at {site}")
