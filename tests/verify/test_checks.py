"""Mutation rejection: every corrupted artifact must fail its check.

These tests take a genuinely correct flow result and break exactly one
invariant per test; the verifier must reject the mutant with a violation
that names the offending object (the acceptance bar for `repro.verify`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.networks.hopfield import HopfieldNetwork
from repro.networks.patterns import qr_like_patterns
from repro.physical.routing.router import RoutingResult
from repro.reliability.defects import DefectRates, sample_defect_map
from repro.verify import (
    VerificationError,
    check_coverage,
    check_functional,
    check_hardware,
    check_physical,
    verify_mapping,
)


def _clone_mapping(mapping, **overrides):
    return dataclasses.replace(mapping, **overrides)


def _clone_routing(routing, wires=None):
    return RoutingResult(
        wires=list(routing.wires) if wires is None else wires,
        grid=routing.grid,
        relax_rounds=routing.relax_rounds,
        overflow_wires=routing.overflow_wires,
    )


def _flip_cell(mapping):
    """Move one crossbar connection to a legal cell that the network lacks."""
    matrix = mapping.network.matrix
    for index, instance in enumerate(mapping.instances):
        taken = set(instance.connections)
        for i, j in instance.connections:
            for j2 in instance.cols:
                if j2 != j and matrix[i, j2] == 0 and (i, j2) not in taken:
                    connections = tuple(
                        (i, j2) if pair == (i, j) else pair
                        for pair in instance.connections
                    )
                    instances = list(mapping.instances)
                    instances[index] = dataclasses.replace(
                        instance, connections=connections
                    )
                    return _clone_mapping(mapping, instances=instances), (i, j), (i, j2)
    raise AssertionError("no flippable cell found in any instance")


# ----------------------------------------------------------------------
# coverage
# ----------------------------------------------------------------------
def test_clean_mapping_passes_coverage(verified_flow):
    result = check_coverage(verified_flow.mapping)
    assert result.passed
    assert result.stats["expected"] == verified_flow.mapping.network.num_connections


def test_flipped_cell_rejected(verified_flow):
    mutant, dropped, phantom = _flip_cell(verified_flow.mapping)
    result = check_coverage(mutant)
    assert not result.passed
    messages = "\n".join(v.message for v in result.violations)
    assert f"connection {dropped} of the network is not realized" in messages
    assert f"realized connection {phantom} does not exist" in messages


def test_duplicate_realization_rejected(verified_flow):
    mapping = verified_flow.mapping
    duplicated = mapping.instances[0].connections[0]
    mutant = _clone_mapping(
        mapping, synapse_connections=list(mapping.synapse_connections) + [duplicated]
    )
    result = check_coverage(mutant)
    assert not result.passed
    assert any(
        f"connection {duplicated} realized 2 times" == v.message
        for v in result.violations
    )


def test_phantom_synapse_rejected(verified_flow):
    mapping = verified_flow.mapping
    matrix = mapping.network.matrix
    i, j = np.argwhere(matrix == 0)[1]
    phantom = (int(i), int(j))
    assert phantom[0] != phantom[1]
    mutant = _clone_mapping(
        mapping, synapse_connections=list(mapping.synapse_connections) + [phantom]
    )
    result = check_coverage(mutant)
    assert any("does not exist in network" in v.message for v in result.violations)


def test_violation_flood_is_capped(verified_flow):
    """A catastrophically wrong mapping reports a rollup, not 700 lines."""
    mapping = verified_flow.mapping
    mutant = _clone_mapping(mapping, instances=[], synapse_connections=[])
    result = check_coverage(mutant)
    assert not result.passed
    assert len(result.violations) <= 30
    assert any("further case(s)" in v.message for v in result.violations)


# ----------------------------------------------------------------------
# hardware
# ----------------------------------------------------------------------
def test_clean_mapping_passes_hardware(verified_flow):
    assert check_hardware(verified_flow.mapping).passed


def test_oversized_crossbar_rejected(verified_flow):
    mapping = verified_flow.mapping
    instances = list(mapping.instances)
    instances[0] = dataclasses.replace(instances[0], size=65)
    result = check_hardware(_clone_mapping(mapping, instances=instances))
    assert not result.passed
    assert any(
        "crossbar 0 has size 65, not in the library" in v.message
        for v in result.violations
    )


def test_netlist_cell_count_mismatch_rejected(verified_flow):
    """Dropping an instance without rebuilding the netlist is inconsistent."""
    mapping = verified_flow.mapping
    mutant = _clone_mapping(mapping, instances=list(mapping.instances)[:-1])
    result = check_hardware(mutant)
    assert any("netlist has" in v.message for v in result.violations)


def test_unrepaired_dead_cells_tolerated_until_binding_claims_repair(verified_flow):
    """A defect map alone is fine; claiming a repair binding is not."""
    mapping = verified_flow.mapping
    rates = DefectRates(cell_stuck_off=0.4, row_line=0.2, col_line=0.2)
    defect_map = sample_defect_map(mapping, rates, rng=0)
    attached = _clone_mapping(mapping, metadata=dict(mapping.metadata))
    defect_map.attach(attached)
    assert check_hardware(attached).passed  # dead cells, but no repair claim

    claimed = _clone_mapping(mapping, metadata=dict(attached.metadata))
    claimed.metadata["physical_binding"] = tuple(range(mapping.num_crossbars))
    result = check_hardware(claimed)
    assert not result.passed
    assert any("dead cell" in v.message for v in result.violations)


def test_binding_without_defect_map_rejected(verified_flow):
    mapping = verified_flow.mapping
    mutant = _clone_mapping(mapping, metadata={"physical_binding": (0,)})
    result = check_hardware(mutant)
    assert any("no defect map" in v.message for v in result.violations)


# ----------------------------------------------------------------------
# physical
# ----------------------------------------------------------------------
def test_clean_design_passes_physical(verified_flow):
    design = verified_flow.design
    result = check_physical(verified_flow.mapping, design.placement, design.routing)
    assert result.passed
    assert result.stats["routed_wires"] == verified_flow.mapping.netlist.num_wires


def test_dropped_net_rejected(verified_flow):
    design = verified_flow.design
    broken = _clone_routing(design.routing, wires=list(design.routing.wires)[:-1])
    result = check_physical(verified_flow.mapping, design.placement, broken)
    assert not result.passed
    dropped = design.routing.wires[-1].wire_index
    assert any(
        f"wire {dropped}" in v.message and "has no route" in v.message
        for v in result.violations
    )


@pytest.mark.parametrize("overlap", ["stacked", "sliver"])
def test_overlapping_cells_rejected(verified_flow, overlap):
    placement = verified_flow.design.placement.copy()
    if overlap == "stacked":
        placement.x[1] = placement.x[0]
        placement.y[1] = placement.y[0]
    else:
        # The two largest cells side by side past the layout's right edge,
        # bottom edges aligned, overlapping in a strip of 0.1 % of the
        # total cell area.
        w, h = placement.widths, placement.heights
        areas = w * h
        i, j = np.argsort(areas)[-2:]
        depth = 1e-3 * areas.sum() / min(h[i], h[j])
        placement.x[i] = np.max(placement.x + w / 2.0) + w[i] / 2.0
        placement.x[j] = placement.x[i] + (w[i] + w[j]) / 2.0 - depth
        placement.y[j] = placement.y[i] + (h[j] - h[i]) / 2.0
        assert placement.overlap_ratio() == pytest.approx(1e-3)
    result = check_physical(verified_flow.mapping, placement)
    assert not result.passed
    assert any("overlap" in v.message for v in result.violations)


def test_off_chip_cell_rejected(verified_flow):
    design = verified_flow.design
    placement = design.placement.copy()
    placement.x[0] += 1e5  # far outside the routed region
    result = check_physical(verified_flow.mapping, placement, design.routing)
    assert not result.passed
    assert any("outside the chip region" in v.message for v in result.violations)


def test_non_finite_coordinate_skips_routing_checks(verified_flow):
    """Pins cannot be binned without coordinates: report only the placement."""
    design = verified_flow.design
    placement = design.placement.copy()
    placement.x[3] = np.nan
    result = check_physical(verified_flow.mapping, placement, design.routing)
    assert [v.message for v in result.violations] == [
        "placement has 1 non-finite coordinate(s)"
    ]


def test_corrupted_path_rejected(verified_flow):
    design = verified_flow.design
    wires = list(design.routing.wires)
    victim_index, victim = next(
        (k, w) for k, w in enumerate(wires) if len(w.path) > 2
    )
    # Dropping an interior bin leaves a 2-bin jump: never grid-adjacent.
    broken_path = [victim.path[0]] + list(victim.path[2:])
    wires[victim_index] = dataclasses.replace(victim, path=broken_path)
    result = check_physical(
        verified_flow.mapping, design.placement, _clone_routing(design.routing, wires)
    )
    assert not result.passed
    assert any("non-contiguous" in v.message for v in result.violations)


def test_wirelength_mismatch_rejected(verified_flow):
    design = verified_flow.design
    wires = list(design.routing.wires)
    wires[0] = dataclasses.replace(wires[0], length_um=wires[0].length_um + 7.5)
    result = check_physical(
        verified_flow.mapping, design.placement, _clone_routing(design.routing, wires)
    )
    assert any("its path measures" in v.message for v in result.violations)


def test_stale_usage_counters_rejected(verified_flow):
    design = verified_flow.design
    grid = design.routing.grid
    original = grid.horizontal_usage.copy()
    grid.horizontal_usage[0, 0] += 3
    try:
        result = check_physical(
            verified_flow.mapping, design.placement, design.routing
        )
    finally:
        grid.horizontal_usage[:] = original
    assert any(
        "disagree with the committed paths" in v.message for v in result.violations
    )


# ----------------------------------------------------------------------
# functional
# ----------------------------------------------------------------------
def test_clean_mapping_passes_functional(verified_flow):
    result = check_functional(verified_flow.mapping)
    assert result.passed
    assert result.stats["max_relative_error"] < 1e-9


def test_unmappable_weights_rejected(verified_flow):
    """Weights outside the mapped topology cannot be implemented."""
    mapping = verified_flow.mapping
    n = mapping.network.size
    dense = HopfieldNetwork.train(qr_like_patterns(4, n, rng=0))
    assert np.count_nonzero(dense.weights * (1 - mapping.network.matrix)) > 0
    result = check_functional(mapping, hopfield=dense)
    assert not result.passed
    assert any("deviates from" in v.message for v in result.violations)


def test_size_mismatch_rejected(verified_flow):
    other = HopfieldNetwork.train(qr_like_patterns(2, 16, rng=0))
    result = check_functional(verified_flow.mapping, hopfield=other)
    assert any("neurons" in v.message for v in result.violations)


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------
def test_verification_error_names_the_failure(verified_flow):
    mutant, dropped, _ = _flip_cell(verified_flow.mapping)
    report = verify_mapping(mutant, checks=("coverage",))
    with pytest.raises(VerificationError) as excinfo:
        report.raise_if_failed()
    assert "coverage" in str(excinfo.value)
    assert str(dropped) in str(excinfo.value)
    assert excinfo.value.report is report


def test_report_format_marks_status(verified_flow):
    mutant, _, _ = _flip_cell(verified_flow.mapping)
    report = verify_mapping(mutant)
    text = report.format()
    assert "FAIL" in text and "coverage" in text
    assert report.check("coverage").status == "fail"
    assert report.check("hardware").status == "pass"
    with pytest.raises(KeyError):
        report.check("nonsense")


def test_unknown_check_selection_rejected(verified_flow):
    with pytest.raises(ValueError, match="unknown check"):
        verify_mapping(verified_flow.mapping, checks=("coverage", "vibes"))
