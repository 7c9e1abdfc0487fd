"""The four verification checks (coverage, hardware, physical, functional).

Every check is read-only and *independent*: it re-derives the invariant
from the source network and the artifact under test instead of trusting
intermediate bookkeeping (``MappingResult.validate`` uses ``assert`` and
is part of the producing code; these checks survive ``python -O`` and a
buggy producer alike).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.mapping.netlist import CellKind, MappingResult
from repro.physical.layout import Placement
from repro.utils.rng import RngLike, ensure_rng
from repro.verify.report import CheckResult, Violation

#: Per-category cap on individually reported violations; the remainder is
#: folded into one summarizing violation so reports stay readable (and
#: report objects stay small) even for catastrophically broken inputs.
MAX_DETAILED_VIOLATIONS = 25

#: Largest accepted placement overlap, as a fraction of total cell area.
#: Legalization leaves none; compaction's float rounding leaves ~1e-16.
OVERLAP_TOLERANCE = 1e-9


def _add_capped(
    violations: List[Violation],
    check: str,
    items: Iterable[str],
    summary: str,
    context: Optional[dict] = None,
) -> int:
    """Append one violation per item up to the cap, then a rollup line."""
    items = list(items)
    for message in items[:MAX_DETAILED_VIOLATIONS]:
        violations.append(Violation(check=check, message=message, context=context or {}))
    hidden = len(items) - MAX_DETAILED_VIOLATIONS
    if hidden > 0:
        violations.append(
            Violation(
                check=check,
                message=f"{summary}: {hidden} further case(s) beyond the first "
                f"{MAX_DETAILED_VIOLATIONS}",
                context={"hidden": hidden, **(context or {})},
            )
        )
    return len(items)


def _pair(pair: np.ndarray) -> Tuple[int, int]:
    """One row of a pair array as the ``(i, j)`` tuple the messages print."""
    return tuple(pair.tolist())


# ----------------------------------------------------------------------
# 1. Coverage — the mapping realizes the network, exactly
# ----------------------------------------------------------------------
def check_coverage(mapping: MappingResult) -> CheckResult:
    """Every source connection realized exactly once; nothing extra.

    Re-counts realization from scratch: the multiset of connections over
    all crossbar instances plus all discrete synapses must equal the set
    of 1-entries of the source connection matrix.
    """
    violations: List[Violation] = []
    crossbar_pairs = [instance.connections for instance in mapping.instances]
    realized, counts = np.unique(
        np.concatenate(crossbar_pairs + [mapping.synapse_connections]),
        axis=0,
        return_counts=True,
    )  # sorted row-major
    n = mapping.network.size
    rows, cols = mapping.network.connection_arrays()
    edges = rows * n + cols
    in_range = np.all((realized >= 0) & (realized < n), axis=1)
    keys = np.where(in_range, realized[:, 0] * n + realized[:, 1], -1)
    extra = realized[~np.isin(keys, edges)]
    missing = np.stack([rows, cols], axis=1)[~np.isin(edges, keys)]
    duplicated = np.flatnonzero(counts > 1)

    _add_capped(
        violations,
        "coverage",
        (
            f"connection {_pair(realized[index])} realized {counts[index]} times"
            for index in duplicated
        ),
        "double-realized connections",
    )
    _add_capped(
        violations,
        "coverage",
        (f"connection {_pair(pair)} of the network is not realized anywhere" for pair in missing),
        "unrealized connections",
    )
    _add_capped(
        violations,
        "coverage",
        (
            f"realized connection {_pair(pair)} does not exist in network "
            f"{mapping.network.name!r}"
            for pair in extra
        ),
        "phantom connections",
    )
    return CheckResult(
        name="coverage",
        violations=violations,
        stats={
            "expected": int(edges.size),
            "realized_crossbar": sum(pairs.shape[0] for pairs in crossbar_pairs),
            "realized_synapse": mapping.num_synapses,
        },
    )


# ----------------------------------------------------------------------
# 2. Hardware legality — library sizes, geometry, netlist, defect binding
# ----------------------------------------------------------------------
def _check_instances(mapping: MappingResult, violations: List[Violation]) -> None:
    n = mapping.network.size
    for index, instance in enumerate(mapping.instances):
        if instance.size not in mapping.library:
            violations.append(
                Violation(
                    "hardware",
                    f"crossbar {index} has size {instance.size}, not in the "
                    f"library {mapping.library.sizes}",
                    {"instance": index, "size": instance.size},
                )
            )
        rows, cols, connections = instance.rows, instance.cols, instance.connections
        if rows.size > instance.size or cols.size > instance.size:
            violations.append(
                Violation(
                    "hardware",
                    f"crossbar {index} hosts {rows.size} rows / "
                    f"{cols.size} cols on a size-{instance.size} array",
                    {"instance": index},
                )
            )
        if np.unique(rows).size != rows.size or np.unique(cols).size != cols.size:
            violations.append(
                Violation(
                    "hardware",
                    f"crossbar {index} assigns a neuron to more than one "
                    "row or column port",
                    {"instance": index},
                )
            )
        ports = np.concatenate((rows, cols))
        out_of_range = np.unique(ports[(ports < 0) | (ports >= n)])
        if out_of_range.size:
            violations.append(
                Violation(
                    "hardware",
                    f"crossbar {index} references neurons {out_of_range.tolist()} "
                    f"outside [0, {n})",
                    {"instance": index},
                )
            )
        rows_local, cols_local = instance.local_cells()
        _add_capped(
            violations,
            "hardware",
            (
                f"crossbar {index}: connection {_pair(pair)} uses a neuron with no "
                "row/column port on this array"
                for pair in connections[(rows_local < 0) | (cols_local < 0)]
            ),
            f"crossbar {index} portless connections",
            {"instance": index},
        )
        if connections.shape[0] > instance.size * instance.size:
            violations.append(
                Violation(
                    "hardware",
                    f"crossbar {index} claims {connections.shape[0]} cells "
                    f"on a size-{instance.size} array (capacity "
                    f"{instance.size * instance.size})",
                    {"instance": index},
                )
            )
    synapses = mapping.synapse_connections
    for index in np.flatnonzero(~np.all((synapses >= 0) & (synapses < n), axis=1)).tolist():
        i, j = synapses[index].tolist()
        violations.append(
            Violation(
                "hardware",
                f"discrete synapse {index} connects ({i}, {j}) outside [0, {n})",
                {"synapse": index},
            )
        )


def _check_netlist(mapping: MappingResult, violations: List[Violation]) -> None:
    """The physical netlist must agree with the logical mapping."""
    netlist = mapping.netlist
    n = mapping.network.size
    expected_cells = n + mapping.num_crossbars + mapping.num_synapses
    if netlist.num_cells != expected_cells:
        violations.append(
            Violation(
                "hardware",
                f"netlist has {netlist.num_cells} cells, mapping implies "
                f"{expected_cells} (={n} neurons + {mapping.num_crossbars} "
                f"crossbars + {mapping.num_synapses} synapses)",
                {},
            )
        )
        return  # per-kind checks below assume the cell layout
    counts = np.bincount(netlist.kinds, minlength=len(CellKind))
    for kind, expected in (
        (CellKind.NEURON, n),
        (CellKind.CROSSBAR, mapping.num_crossbars),
        (CellKind.SYNAPSE, mapping.num_synapses),
    ):
        if counts[kind] != expected:
            name = kind.name.lower()
            violations.append(
                Violation(
                    "hardware",
                    f"netlist has {counts[kind]} {name} cell(s), mapping implies {expected}",
                    {"kind": name},
                )
            )
    expected_wires = (
        sum(len(x.rows) + len(x.cols) for x in mapping.instances)
        + 2 * mapping.num_synapses
    )
    if netlist.num_wires != expected_wires:
        violations.append(
            Violation(
                "hardware",
                f"netlist has {netlist.num_wires} wires, mapping implies "
                f"{expected_wires} (crossbar ports + 2 per synapse)",
                {},
            )
        )
    # Crossbar cell footprints must come from the library spec of their size.
    crossbar_cells = np.flatnonzero(netlist.kinds == CellKind.CROSSBAR).tolist()
    for index, (cell, instance) in enumerate(zip(crossbar_cells, mapping.instances)):
        if instance.size not in mapping.library:
            continue
        side = mapping.library.spec(instance.size).side_um
        width, height = netlist.widths[cell], netlist.heights[cell]
        if not (np.isclose(width, side) and np.isclose(height, side)):
            violations.append(
                Violation(
                    "hardware",
                    f"crossbar cell {cell} (instance {index}) measures {width:.3f}×"
                    f"{height:.3f} µm, library size {instance.size} specifies {side:.3f} µm",
                    {"instance": index, "cell": cell},
                )
            )


def _check_defect_binding(mapping: MappingResult, violations: List[Violation]) -> None:
    """Repair/spare bindings must stay consistent with the defect map."""
    defect_map = mapping.metadata.get("defect_map")
    binding = mapping.metadata.get("physical_binding")
    if defect_map is None:
        if binding is not None:
            violations.append(
                Violation(
                    "hardware",
                    "mapping records a physical_binding but carries no defect map",
                    {},
                )
            )
        return
    if defect_map.num_instances < mapping.num_crossbars:
        violations.append(
            Violation(
                "hardware",
                f"defect map covers {defect_map.num_instances} physical "
                f"crossbar(s), mapping places {mapping.num_crossbars}",
                {},
            )
        )
        return
    if binding is not None and len(binding) != mapping.num_crossbars:
        violations.append(
            Violation(
                "hardware",
                f"physical_binding lists {len(binding)} crossbar(s), mapping "
                f"places {mapping.num_crossbars}",
                {},
            )
        )
    from repro.reliability.defects import lost_connections

    for index, instance in enumerate(mapping.instances):
        defects = defect_map.instances[index]
        if defects.size < instance.size:
            violations.append(
                Violation(
                    "hardware",
                    f"crossbar {index} (size {instance.size}) is bound to a "
                    f"physical array of size {defects.size}",
                    {"instance": index},
                )
            )
            continue
        if binding is None:
            # Unrepaired mapping: dead cells may still carry connections.
            continue
        dead = lost_connections(instance, defects)
        _add_capped(
            violations,
            "hardware",
            (
                f"repaired crossbar {index}: connection {_pair(pair)} still sits on a "
                "dead cell of its bound physical array"
                for pair in dead
            ),
            f"repaired crossbar {index} dead-cell connections",
            {"instance": index},
        )


def check_hardware(mapping: MappingResult) -> CheckResult:
    """Library sizes, cluster geometry, netlist and defect-map consistency."""
    violations: List[Violation] = []
    _check_instances(mapping, violations)
    _check_netlist(mapping, violations)
    _check_defect_binding(mapping, violations)
    return CheckResult(
        name="hardware",
        violations=violations,
        stats={
            "crossbars": mapping.num_crossbars,
            "synapses": mapping.num_synapses,
            "library": tuple(mapping.library.sizes),
        },
    )


# ----------------------------------------------------------------------
# 3. Physical legality — placement on-chip & overlap-free, routing sound
# ----------------------------------------------------------------------
def _check_placement(
    mapping: MappingResult,
    placement: Placement,
    overlap_ratio: float,
    violations: List[Violation],
) -> bool:
    """Record placement violations; True when the cells can be located at all
    (one finite position per netlist cell), so routing can be checked."""
    netlist = mapping.netlist
    if placement.num_cells != netlist.num_cells:
        violations.append(
            Violation(
                "physical",
                f"placement holds {placement.num_cells} cells, netlist has "
                f"{netlist.num_cells}",
                {},
            )
        )
        return False
    if not (np.all(np.isfinite(placement.x)) and np.all(np.isfinite(placement.y))):
        bad = int(
            np.count_nonzero(~np.isfinite(placement.x))
            + np.count_nonzero(~np.isfinite(placement.y))
        )
        violations.append(
            Violation(
                "physical",
                f"placement has {bad} non-finite coordinate(s)",
                {"non_finite": bad},
            )
        )
        return False
    if not (
        np.allclose(placement.widths, netlist.widths)
        and np.allclose(placement.heights, netlist.heights)
    ):
        violations.append(
            Violation(
                "physical",
                "placement cell dimensions disagree with the netlist footprints",
                {},
            )
        )
    if overlap_ratio > OVERLAP_TOLERANCE:
        violations.append(
            Violation(
                "physical",
                f"post-legalization cell overlap is {overlap_ratio:.3g} of total cell "
                f"area (tolerance {OVERLAP_TOLERANCE:g})",
                {"overlap_ratio": overlap_ratio},
            )
        )
    return True


def _recompute_usage(grid, paths) -> Tuple[np.ndarray, np.ndarray]:
    """Independent edge-usage tally from the committed (contiguous) paths.

    A step along a row crosses horizontal edge ``(min x, y)``, a step
    along a column vertical edge ``(x, min y)``.
    """
    horizontal = np.zeros_like(grid.horizontal_usage)
    vertical = np.zeros_like(grid.vertical_usage)
    for path in paths:
        for (ax, ay), (bx, by) in zip(path, path[1:]):
            if ay == by:
                horizontal[min(ax, bx), ay] += 1
            else:
                vertical[ax, min(ay, by)] += 1
    return horizontal, vertical


def _check_routing(
    mapping: MappingResult,
    placement: Placement,
    routing,
    violations: List[Violation],
) -> None:
    netlist = mapping.netlist
    grid = routing.grid
    paths, lengths = routing.paths, routing.lengths
    counts = (len(paths), len(lengths), len(routing.overflowed))
    one_per_wire = counts == (netlist.num_wires,) * 3
    if not one_per_wire:
        violations.append(
            Violation(
                "physical",
                f"routing holds {counts[0]} paths, {counts[1]} lengths and "
                f"{counts[2]} overflow flags for {netlist.num_wires} netlist wires",
                {"paths": counts[0], "lengths": counts[1], "overflow_flags": counts[2]},
            )
        )

    # On-chip containment: every cell extent inside the routed region.
    x0, y0 = grid.origin
    x1 = x0 + grid.nx * grid.bin_um
    y1 = y0 + grid.ny * grid.bin_um
    eps = 1e-6
    half_w = placement.widths / 2.0
    half_h = placement.heights / 2.0
    outside = np.nonzero(
        (placement.x - half_w < x0 - eps)
        | (placement.x + half_w > x1 + eps)
        | (placement.y - half_h < y0 - eps)
        | (placement.y + half_h > y1 + eps)
    )[0]
    _add_capped(
        violations,
        "physical",
        (
            f"cell {i} extends outside the chip "
            f"region [{x0:.1f}, {x1:.1f}]×[{y0:.1f}, {y1:.1f}] µm"
            for i in outside
        ),
        "off-chip cells",
    )

    # Every wire's pin bins and pin-to-pin Manhattan length.
    sx, sy = placement.x[netlist.sources], placement.y[netlist.sources]
    tx, ty = placement.x[netlist.targets], placement.y[netlist.targets]
    start_x, start_y = grid.bin_of(sx, sy)
    goal_x, goal_y = grid.bin_of(tx, ty)
    starts = list(zip(start_x.tolist(), start_y.tolist()))
    goals = list(zip(goal_x.tolist(), goal_y.tolist()))
    manhattan = (np.abs(sx - tx) + np.abs(sy - ty)).tolist()

    pin_mismatches: List[str] = []
    broken_paths: List[str] = []
    length_errors: List[str] = []
    multi_bin_paths = []
    for index in range(min(netlist.num_wires, counts[0], counts[1])):
        path = [tuple(b) for b in paths[index]]
        if not path:
            broken_paths.append(f"wire {index} has an empty path")
            continue
        start, goal = starts[index], goals[index]
        length = float(lengths[index])
        if len(path) == 1:
            if start != goal or path[0] != start:
                pin_mismatches.append(
                    f"wire {index} claims a same-bin route at {path[0]} but its "
                    f"pins sit in {start} and {goal}"
                )
            expected_length = manhattan[index]
        else:
            if path[0] != start or path[-1] != goal:
                pin_mismatches.append(
                    f"wire {index} routes {path[0]}→{path[-1]} but its pins sit "
                    f"in {start} and {goal}"
                )
            adjacency_ok = True
            for a, b in zip(path, path[1:]):
                if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                    adjacency_ok = False
                    break
                if not (0 <= b[0] < grid.nx and 0 <= b[1] < grid.ny):
                    adjacency_ok = False
                    break
            if not adjacency_ok:
                broken_paths.append(
                    f"wire {index} has a non-contiguous or off-grid bin path"
                )
                continue
            multi_bin_paths.append(path)
            expected_length = grid.path_length_um(path)
        if abs(length - expected_length) > 1e-6 + 1e-9 * expected_length:
            length_errors.append(
                f"wire {index} records length {length:.3f} µm, "
                f"its path measures {expected_length:.3f} µm"
            )
    _add_capped(violations, "physical", pin_mismatches, "pin-set mismatches")
    _add_capped(violations, "physical", broken_paths, "broken paths")
    _add_capped(violations, "physical", length_errors, "wirelength mismatches")

    # Capacity accounting: the grid's usage counters must equal an
    # independent tally of the committed paths, and no edge may exceed its
    # (virtual, possibly relaxed) capacity unless the router explicitly
    # reported overflow wires.
    horizontal, vertical = _recompute_usage(grid, multi_bin_paths)
    if one_per_wire and not broken_paths:
        if not (
            np.array_equal(horizontal, grid.horizontal_usage)
            and np.array_equal(vertical, grid.vertical_usage)
        ):
            violations.append(
                Violation(
                    "physical",
                    "routing grid usage counters disagree with the committed "
                    "paths (stale or corrupted congestion bookkeeping)",
                    {},
                )
            )
    over = int(
        np.count_nonzero(horizontal > grid.horizontal_capacity)
        + np.count_nonzero(vertical > grid.vertical_capacity)
    )
    if over > 0 and routing.overflow_wires == 0:
        violations.append(
            Violation(
                "physical",
                f"{over} routing edge(s) exceed their virtual capacity but the "
                "router reported zero overflow wires",
                {"edges_over_capacity": over},
            )
        )


def check_physical(
    mapping: MappingResult,
    placement: Placement,
    routing=None,
) -> CheckResult:
    """Placement legality plus routing soundness for a placed design.

    Cells may overlap by at most :data:`OVERLAP_TOLERANCE` of the total
    cell area, i.e. by float rounding only.
    """
    violations: List[Violation] = []
    overlap_ratio = placement.overlap_ratio()
    located = _check_placement(mapping, placement, overlap_ratio, violations)
    if routing is not None and located:
        _check_routing(mapping, placement, routing, violations)
    stats = {
        "cells": placement.num_cells,
        "overlap_ratio": round(overlap_ratio, 6),
    }
    if routing is not None:
        stats["routed_wires"] = len(routing.paths)
        stats["overflow_wires"] = routing.overflow_wires
    return CheckResult(name="physical", violations=violations, stats=stats)


# ----------------------------------------------------------------------
# 4. Functional equivalence — hybrid simulation matches the ideal network
# ----------------------------------------------------------------------
def check_functional(
    mapping: MappingResult,
    hopfield=None,
    probes: int = 6,
    numeric_tolerance: float = 1e-6,
    max_patterns: int = 5,
    max_recall_steps: int = 50,
    rng: RngLike = 0,
) -> CheckResult:
    """The mapped hardware computes what the source network computes.

    With an ideal device model the hybrid simulator's differential read is
    exact, so ``sim.compute(x)`` must match ``x @ W`` to floating-point
    precision on random ±1 probes.  When a :class:`HopfieldNetwork` is
    supplied, its weights drive the comparison and stored-pattern recall
    is additionally replayed: at every step of the software recall
    trajectory the hardware's activations must numerically match the ideal
    ``W @ state``.  The comparison deliberately follows the *software*
    state sequence instead of comparing final recalled states — synchronous
    Hopfield dynamics are chaotic at exactly-zero activations (Hebbian
    weights are multiples of 1/N, so ties are common), and a tie broken
    differently by floating-point summation order would diverge the
    trajectories without any hardware defect.  Per-step activation
    equivalence is the invariant the hardware can actually guarantee.
    """
    from repro.hardware.simulation import HybridNcsSimulator, max_abs_weight

    violations: List[Violation] = []
    n = mapping.network.size
    if hopfield is not None and hopfield.size != n:
        violations.append(
            Violation(
                "functional",
                f"hopfield network has {hopfield.size} neurons, mapping has {n}",
                {},
            )
        )
        return CheckResult(name="functional", violations=violations)
    # The network's own weights stay sparse: nothing here builds an n × n array.
    weights = hopfield.weights if hopfield is not None else mapping.network.adjacency()
    simulator = HybridNcsSimulator(mapping, signed_weights=weights)
    generator = ensure_rng(rng)
    max_error = 0.0
    scale = max(1.0, max_abs_weight(weights) * n)
    for probe_index in range(max(1, probes)):
        x = generator.choice([-1.0, 1.0], size=n)
        ideal = x @ weights
        actual = simulator.compute(x)
        error = float(np.max(np.abs(actual - ideal))) / scale
        max_error = max(max_error, error)
        if error > numeric_tolerance:
            violations.append(
                Violation(
                    "functional",
                    f"probe {probe_index}: hardware evaluation deviates from "
                    f"x @ W by {error:.3e} relative (tolerance "
                    f"{numeric_tolerance:.1e})",
                    {"probe": probe_index, "error": error},
                )
            )
    stats = {"probes": probes, "max_relative_error": float(f"{max_error:.3e}")}

    if hopfield is not None and len(hopfield.patterns):
        from repro.networks.patterns import corrupt_pattern

        worst_recall_error = 0.0
        steps_walked = 0
        for pattern_index, pattern in enumerate(hopfield.patterns[:max_patterns]):
            state = corrupt_pattern(pattern, 0.05, rng=generator).astype(float)
            for step in range(max_recall_steps):
                ideal = weights @ state
                actual = simulator.compute(state)
                error = float(np.max(np.abs(actual - ideal))) / scale
                worst_recall_error = max(worst_recall_error, error)
                steps_walked += 1
                if error > numeric_tolerance:
                    violations.append(
                        Violation(
                            "functional",
                            f"pattern {pattern_index}, recall step {step}: "
                            f"hardware activations deviate from the ideal "
                            f"network by {error:.3e} relative (tolerance "
                            f"{numeric_tolerance:.1e})",
                            {"pattern": pattern_index, "step": step, "error": error},
                        )
                    )
                    break
                new_state = np.where(ideal >= 0.0, 1.0, -1.0)
                if np.array_equal(new_state, state):
                    break
                state = new_state
        stats["recall_steps"] = steps_walked
        stats["max_recall_error"] = float(f"{worst_recall_error:.3e}")
    return CheckResult(name="functional", violations=violations, stats=stats)
