"""Job and sweep descriptions for the execution engine.

A :class:`Job` is one self-contained unit of work: a *kind* naming the
registered executor (``"compare"``, ``"autoncs"``, ``"fullcro"``,
``"yield_trial"``, …), a picklable payload of inputs, a seed, and
optional cache-key material.  A :class:`SweepSpec` describes a grid of
(network size × density) AutoNCS runs and expands it into jobs whose
per-cell RNGs are spawned from one ``numpy.random.SeedSequence`` — the
seeding happens at job *construction*, not at execution, so the results
are bitwise-identical no matter how many workers execute them or in
which order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import AutoNcsConfig
from repro.networks.generators import random_sparse_network
from repro.runtime.resilience import JobFailure
from repro.utils.canonical import stable_hash

#: Seeds accepted by a job: a plain int, a SeedSequence, or None (no RNG).
JobSeed = Union[None, int, np.random.SeedSequence]


@dataclass
class Job:
    """One unit of work for :class:`~repro.runtime.runner.Runner`.

    Attributes
    ----------
    kind:
        Name of a registered executor (see
        :func:`repro.runtime.runner.register_executor`).
    label:
        Display name used in events and progress output.
    payload:
        Keyword arguments shipped to the executor.  Must be picklable —
        jobs cross process boundaries.
    seed:
        Seed material for the job's private RNG; the runner expands it
        with ``numpy.random.default_rng`` in the worker.  Fixed here, at
        construction, so scheduling cannot perturb results.
    key:
        Cache-key material (canonicalized and hashed together with the
        kind, the seed and the package version).  ``None`` marks the job
        uncacheable.
    """

    kind: str
    label: str
    payload: Dict[str, Any] = field(default_factory=dict)
    seed: JobSeed = None
    key: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("job kind must be a non-empty string")

    @property
    def cacheable(self) -> bool:
        """True when the job carries cache-key material."""
        return self.key is not None


@dataclass
class JobResult:
    """Outcome of one executed (or cache-served) job.

    ``failure`` is ``None`` for a successful job; a failed job (only
    possible when the runner carries a
    :class:`~repro.runtime.resilience.ResilienceConfig` that is not
    fail-fast) has ``value=None`` and a structured
    :class:`~repro.runtime.resilience.JobFailure` here instead.
    ``attempts`` counts executions charged to the job (1 for a clean
    first-attempt success; 0 for a cache hit).
    """

    index: int
    label: str
    kind: str
    value: Any
    seconds: float = 0.0
    cache_hit: bool = False
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    attempts: int = 1
    failure: Optional[JobFailure] = None

    @property
    def ok(self) -> bool:
        """True when the job produced a value (executed or cached)."""
        return self.failure is None


@dataclass
class SweepSpec:
    """A (size × density × seed) grid of AutoNCS flow runs.

    Each grid cell generates a random sparse network and runs the flow
    of ``kind`` on it ("compare" for AutoNCS-vs-FullCro, "autoncs" for
    the AutoNCS flow alone).  Cell RNGs derive from
    ``SeedSequence(seed).spawn(...)`` — one child per cell, split again
    into a network-generation stream and a flow stream — so any subset
    of cells reproduces exactly, in any execution order.
    """

    sizes: Tuple[int, ...]
    densities: Tuple[float, ...]
    seed: int = 42
    kind: str = "compare"
    config: AutoNcsConfig = field(default_factory=AutoNcsConfig)
    name: str = "sweep"

    def __post_init__(self) -> None:
        self.sizes = tuple(int(s) for s in self.sizes)
        self.densities = tuple(float(d) for d in self.densities)
        if not self.sizes or min(self.sizes) < 2:
            raise ValueError(f"sizes must be >= 2, got {self.sizes}")
        if not self.densities or not all(0.0 < d <= 1.0 for d in self.densities):
            raise ValueError(f"densities must lie in (0, 1], got {self.densities}")
        if self.kind not in ("compare", "autoncs", "fullcro"):
            raise ValueError(
                f"sweep kind must be 'compare', 'autoncs' or 'fullcro', got {self.kind!r}"
            )

    def cells(self) -> List[Tuple[int, float]]:
        """The (size, density) grid in row-major order."""
        return list(itertools.product(self.sizes, self.densities))

    def sweep_key(self) -> str:
        """A stable content-address of the sweep itself.

        Keys the crash-safe journal (and its default file name), so a
        ``--resume`` against a *different* grid/seed/config is detectable
        rather than silently mixing runs.  The display ``name`` is
        deliberately excluded — renaming a sweep must not orphan its
        journal (cell labels and cache keys key on content, not name).
        """
        return stable_hash(
            {
                "sizes": self.sizes,
                "densities": self.densities,
                "seed": self.seed,
                "kind": self.kind,
                "config": self.config.cache_key(),
            }
        )

    def __len__(self) -> int:
        return len(self.sizes) * len(self.densities)

    def jobs(self) -> List[Job]:
        """Expand the grid into runnable jobs (networks generated here).

        Network generation happens in the driver process — it is cheap
        relative to the flow, and keeps the expensive part (the job) a
        pure function of its payload and seed.
        """
        cells = self.cells()
        children = np.random.SeedSequence(self.seed).spawn(len(cells))
        jobs: List[Job] = []
        for (size, density), child in zip(cells, children):
            network_seq, flow_seq = child.spawn(2)
            network = random_sparse_network(
                size,
                density,
                rng=np.random.default_rng(network_seq),
                name=f"{self.name}-n{size}-d{density:g}",
            )
            jobs.append(
                Job(
                    kind=self.kind,
                    label=f"n={size} d={density:g}",
                    payload={"network": network, "config": self.config},
                    seed=flow_seq,
                    key={
                        "network": network.digest(),
                        "config": self.config.cache_key(),
                        "size": size,
                        "density": density,
                    },
                )
            )
        return jobs
