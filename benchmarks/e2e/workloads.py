"""The benchmark's workloads: seeded inputs and the flow each one runs.

Every workload turns ``--seed`` into a fixed list of networks, each with
its own flow seed (one child stream per network, so each is reproducible
on its own), and runs one flow per network: map, place, route, then the
independent verifier of :mod:`repro.verify`, which is the reference for
correctness.  The flow is given only the network and its seed.  Sizes are
chosen so that one pass over a workload's networks fits the run length on
a 2-core machine; the README records the measured stage shares and why
each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

import repro
from repro import FlowOptions
from repro.core import AutoNCS
from repro.experiments.testbenches import TESTBENCHES, build_testbench, scaled_testbench
from repro.networks import scale_free_network

#: Barabási–Albert edges per new neuron (the repo's scale-free convention).
ATTACHMENT = 2


@dataclass(frozen=True)
class Case:
    """One input network and the seed its flow runs with; ``hopfield``
    enables the recall check."""

    name: str
    network: object
    seed: int
    hopfield: object = None


@dataclass
class Design:
    """What one flow produced: the physical design and its verification."""

    design: object
    report: object
    fallbacks: list

    def qor(self) -> Tuple[float, float, float]:
        """Eq. (3) terms: placed area (µm²), routed wirelength (µm), delay (ns)."""
        cost = self.design.cost
        return (cost.area_um2, cost.wirelength_um, cost.average_delay_ns)

    def problem(self) -> Optional[str]:
        """Why the design is not acceptable, or ``None``."""
        if not self.report.passed:
            return f"verification failed: {self.report.violations[0]}"
        overflow = self.design.routing.overflow_wires
        if overflow:
            return f"{overflow} wire(s) overflow routing capacity"
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], List[Case]]
    flow: Callable[[Case], Design]


def _streams(seed: int, count: int) -> List[Tuple[np.random.Generator, int]]:
    """Per network, a generator for its inputs and a seed for its flow.

    The flow seed alone can change a flow's time by 2.5x (placement and
    k-means start from it), so one seed shared by a run's networks would
    move all of their times together and the run would not average them.
    """
    streams = []
    for child in np.random.SeedSequence(seed).spawn(count):
        inputs, flow = child.spawn(2)
        streams.append((np.random.default_rng(inputs), int(flow.generate_state(1)[0])))
    return streams


def paper_testbenches(seed: int) -> List[Case]:
    """The paper's three (M, N) testbench shapes at a third of N, seven of
    each, built as ``python -m repro compare --testbench i --dimension d``
    builds them."""
    shapes = [scaled_testbench(tb.index, tb.dimension // 3) for tb in TESTBENCHES] * 7
    cases = []
    for position, (shape, (rng, flow_seed)) in enumerate(zip(shapes, _streams(seed, len(shapes)))):
        instance = build_testbench(shape, rng=rng)
        name = f"tb{shape.index}-{shape.dimension}.{position // len(TESTBENCHES)}"
        cases.append(Case(name, instance.network, flow_seed, instance.hopfield))
    return cases


def scale_free(neurons: int, count: int) -> Callable[[int], List[Case]]:
    """``count`` independent scale-free networks of ``neurons`` neurons."""

    def generate(seed: int) -> List[Case]:
        cases = []
        for index, (rng, flow_seed) in enumerate(_streams(seed, count)):
            network = scale_free_network(neurons, ATTACHMENT, rng=rng)
            cases.append(Case(f"sf{neurons}.{index}", network, flow_seed))
        return cases

    return generate


def autoncs_flow(case: Case) -> Design:
    """The AutoNCS flow through the public API, then all four checks."""
    result = repro.map_network(case.network, options=FlowOptions(seed=case.seed))
    report = repro.verify(result, options=FlowOptions(hopfield=case.hopfield))
    return Design(result.design, report, result.metadata["fallbacks"])


def fullcro_flow(case: Case) -> Design:
    """The FullCro baseline (paper Table 1 comparator), then all four checks."""
    design = AutoNCS().run_baseline(case.network, rng=case.seed)
    report = repro.verify(design, options=FlowOptions(hopfield=case.hopfield))
    return Design(design, report, design.metadata["diagnostics"]["fallbacks"])


#: Every workload runs the default configuration, as the CLI, the
#: experiments and ``repro bench`` do.  The scale-free networks are those of
#: the ROADMAP's clustering measurements and the ``repro bench`` clustering
#: suite (``scale_free_network(n, 2)``), and both scale-free workloads get
#: the same seven, so AutoNCS and FullCro see identical inputs.  A flow
#: time varies by about a fifth between networks, so a run needs several
#: of them for its sum to read the same across seeds; n = 250 is the largest
#: size at which seven fit one run (one flow takes about 3 s at n = 250,
#: 5 s at n = 300 and 17-22 s at n = 500 on a 2-core machine).
WORKLOADS: Tuple[Workload, ...] = (
    Workload("paper-tb", paper_testbenches, autoncs_flow),
    Workload("sf-250", scale_free(250, 7), autoncs_flow),
    Workload("fullcro-250", scale_free(250, 7), fullcro_flow),
)


def workload(name: str) -> Workload:
    """Look a workload up by name."""
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown workload {name!r}; have {[w.name for w in WORKLOADS]}")


def warm_up() -> None:
    """One small flow of each kind, so lazy imports and first-call costs are
    paid in setup.  At 32 neurons the next larger flow still paid ~0.7 s."""
    case = Case("warm-up", scale_free_network(64, ATTACHMENT, rng=0), 0)
    autoncs_flow(case)
    fullcro_flow(case)
