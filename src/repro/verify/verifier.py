"""Top-level entry points: :func:`verify_mapping` and :func:`verify_flow`."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.mapping.netlist import MappingResult
from repro.physical.layout import Placement
from repro.utils.rng import RngLike
from repro.verify.checks import (
    check_coverage,
    check_functional,
    check_hardware,
    check_physical,
)
from repro.verify.report import CheckResult, VerificationReport

#: Canonical check names, in execution order.
CHECK_NAMES: Tuple[str, ...] = ("coverage", "hardware", "physical", "functional")


def _select_checks(checks: Optional[Iterable[str]]) -> Sequence[str]:
    if checks is None:
        return CHECK_NAMES
    selected = tuple(checks)
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown check(s) {unknown}; valid names: {list(CHECK_NAMES)}")
    return tuple(name for name in CHECK_NAMES if name in selected)


def verify_mapping(
    mapping: MappingResult,
    placement: Optional[Placement] = None,
    routing=None,
    hopfield=None,
    checks: Optional[Iterable[str]] = None,
    probes: int = 6,
    rng: RngLike = 0,
) -> VerificationReport:
    """Independently verify a mapped (and optionally implemented) design.

    Parameters
    ----------
    mapping:
        The hybrid mapping under test (AutoNCS or FullCro).
    placement / routing:
        Physical artifacts for the **physical** check; when omitted, that
        check is reported as skipped rather than failed.
    hopfield:
        Optional :class:`~repro.networks.hopfield.HopfieldNetwork` whose
        weights the mapping implements; enables the stored-pattern recall
        comparison of the **functional** check.
    checks:
        Optional subset of :data:`CHECK_NAMES` to run (default: all).
    probes:
        Random ±1 probe vectors for the functional equivalence test.
    rng:
        Seed/generator for the functional probes (default: fixed seed 0,
        so verification itself is deterministic).

    Returns
    -------
    VerificationReport
        Per-check pass/fail with pointed violation messages.  The report
        never raises; call :meth:`VerificationReport.raise_if_failed` for
        an exception-style API.
    """
    selected = _select_checks(checks)
    results = []
    for name in selected:
        if name == "coverage":
            results.append(check_coverage(mapping))
        elif name == "hardware":
            results.append(check_hardware(mapping))
        elif name == "physical":
            if placement is None:
                results.append(
                    CheckResult(
                        name="physical",
                        skipped=True,
                        reason="no placement supplied",
                    )
                )
            else:
                results.append(check_physical(mapping, placement, routing))
        elif name == "functional":
            results.append(
                check_functional(mapping, hopfield=hopfield, probes=probes, rng=rng)
            )
    return VerificationReport(
        target=mapping.name,
        checks=results,
        metadata={
            "network": mapping.network.name,
            "neurons": mapping.network.size,
            "connections": mapping.network.num_connections,
        },
    )


def verify_flow(
    flow,
    hopfield=None,
    checks: Optional[Iterable[str]] = None,
    probes: int = 6,
    rng: RngLike = 0,
) -> VerificationReport:
    """Verify a complete flow result, artifacts included.

    ``flow`` may be an :class:`~repro.core.autoncs.AutoNcsResult`, a
    :class:`~repro.physical.layout.PhysicalDesign`, or a bare
    :class:`~repro.mapping.netlist.MappingResult`; placement and routing
    are pulled from the artifact when present so all four checks run.
    """
    design = getattr(flow, "design", flow)
    mapping = getattr(design, "mapping", design)
    if not isinstance(mapping, MappingResult):
        raise TypeError(
            "verify_flow expects an AutoNcsResult, PhysicalDesign or "
            f"MappingResult, got {type(flow).__name__}"
        )
    placement = getattr(design, "placement", None)
    routing = getattr(design, "routing", None)
    return verify_mapping(
        mapping,
        placement=placement,
        routing=routing,
        hopfield=hopfield,
        checks=checks,
        probes=probes,
        rng=rng,
    )
