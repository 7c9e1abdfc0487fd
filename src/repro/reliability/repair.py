"""Fault-aware mapping repair (extension).

Given a :class:`~repro.reliability.defects.DefectMap`, the repair pass makes
a mapped design functional again in three escalating steps:

1. **Re-binding** — clusters are logical; which *physical* crossbar serves
   each cluster is free.  A greedy swap/move search over the physical pool
   (mapped instances plus optional spares) re-binds clusters so that as few
   connections as possible land on dead cells.
2. **Demotion** — connections still on dead cells after re-binding are
   demoted to discrete synapses (the hybrid substrate's escape hatch; the
   same medium ISC uses for outliers).
3. **Drop** — an instance that loses *all* its connections (e.g. a fully
   defective crossbar with no usable spare) is removed entirely and its
   whole cluster lives on synapses.

The result is a new, validated :class:`~repro.mapping.netlist.MappingResult`
plus a :class:`RepairReport` quantifying connections lost/recovered,
synapses added and the area delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hardware.crossbar import CrossbarInstance
from repro.mapping.netlist import MappingResult, build_netlist
from repro.reliability.defects import (
    DefectMap,
    DefectRates,
    count_lost_connections,
    lost_connection_mask,
)


@dataclass
class RepairReport:
    """What the repair pass did to a mapped design.

    ``connections_lost_before`` counts connections on dead cells under the
    identity binding (cluster *k* on physical crossbar *k*);
    ``connections_lost_after_rebinding`` counts them under the repaired
    binding — those survivors are demoted to synapses, so the repaired
    design implements every connection functionally.
    """

    rates: DefectRates
    connections_lost_before: int
    connections_lost_after_rebinding: int
    synapses_added: int
    clusters_rebound: int
    clusters_demoted: int
    spares_used: int
    area_before_um2: float
    area_after_um2: float
    binding: Tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def connections_recovered(self) -> int:
        """Connections rescued by re-binding alone."""
        return self.connections_lost_before - self.connections_lost_after_rebinding

    @property
    def area_delta_um2(self) -> float:
        """Cell-area change (synapses added, crossbars dropped or resized)."""
        return self.area_after_um2 - self.area_before_um2

    def summary(self) -> Dict[str, float]:
        """Scalar summary for logs and experiment tables."""
        return {
            "lost_before": self.connections_lost_before,
            "lost_after_rebinding": self.connections_lost_after_rebinding,
            "recovered": self.connections_recovered,
            "synapses_added": self.synapses_added,
            "clusters_rebound": self.clusters_rebound,
            "clusters_demoted": self.clusters_demoted,
            "spares_used": self.spares_used,
            "area_delta_um2": self.area_delta_um2,
        }


def _feasible(instance: CrossbarInstance, size: int) -> bool:
    """Can a physical crossbar of ``size`` host ``instance``'s cluster?"""
    return size >= max(len(instance.rows), len(instance.cols))


def _optimize_binding(
    instances: List[CrossbarInstance],
    defect_map: DefectMap,
    max_passes: int,
) -> List[int]:
    """Greedy swap/move search minimizing total connections on dead cells."""
    pool = defect_map.instances
    k_count = len(instances)
    binding = list(range(k_count))
    owner: Dict[int, int] = {p: k for k, p in enumerate(binding)}

    cost_cache: Dict[Tuple[int, int], int] = {}

    def cost(k: int, p: int) -> int:
        key = (k, p)
        if key not in cost_cache:
            cost_cache[key] = count_lost_connections(instances[k], pool[p])
        return cost_cache[key]

    for _ in range(max_passes):
        improved = False
        # Worst-afflicted clusters pick first each pass.
        order = sorted(range(k_count), key=lambda k: cost(k, binding[k]), reverse=True)
        for k in order:
            current = cost(k, binding[k])
            if current == 0:
                continue
            best_delta = 0
            best_move: Optional[Tuple[int, Optional[int]]] = None
            for p in range(len(pool)):
                if p == binding[k] or not _feasible(instances[k], pool[p].size):
                    continue
                k2 = owner.get(p)
                if k2 is None:
                    delta = cost(k, p) - current
                else:
                    if not _feasible(instances[k2], pool[binding[k]].size):
                        continue
                    delta = (cost(k, p) + cost(k2, binding[k])) - (
                        current + cost(k2, p)
                    )
                if delta < best_delta:
                    best_delta = delta
                    best_move = (p, k2)
            if best_move is not None:
                p, k2 = best_move
                old_p = binding[k]
                binding[k] = p
                owner[p] = k
                if k2 is None:
                    del owner[old_p]
                else:
                    binding[k2] = old_p
                    owner[old_p] = k2
                improved = True
        if not improved:
            break
    return binding


def repair_mapping(
    mapping: MappingResult,
    defect_map: Optional[DefectMap] = None,
    max_passes: int = 4,
) -> Tuple[MappingResult, RepairReport]:
    """Repair ``mapping`` against a defect map; returns the new mapping + report.

    ``defect_map`` defaults to the one attached to the mapping
    (``mapping.metadata['defect_map']``, see :meth:`DefectMap.attach`).  The
    repaired mapping carries its re-ordered defect map (entry *k* describes
    the physical crossbar now serving instance *k*) under the same metadata
    key, so a faulty-hardware simulation of the repaired design stays
    consistent with the binding.
    """
    if defect_map is None:
        defect_map = mapping.metadata.get("defect_map")
        if defect_map is None:
            raise ValueError(
                "no defect map given and none attached to the mapping; "
                "call sample_defect_map(...).attach(mapping) first"
            )
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    instances = mapping.instances
    if defect_map.num_instances < len(instances):
        raise ValueError(
            f"defect map covers {defect_map.num_instances} physical crossbars, "
            f"mapping has {len(instances)} instances"
        )

    lost_before = sum(
        count_lost_connections(instance, defect_map.instances[k])
        for k, instance in enumerate(instances)
    )

    binding = _optimize_binding(instances, defect_map, max_passes=max_passes)

    new_instances: List[CrossbarInstance] = []
    surviving_physical: List[int] = []
    synapse_parts = [mapping.synapse_connections]
    clusters_demoted = 0
    for k, instance in enumerate(instances):
        physical = defect_map.instances[binding[k]]
        lost = lost_connection_mask(instance, physical)
        synapse_parts.append(instance.connections[lost])  # demoted
        if lost.all():
            clusters_demoted += 1
            continue  # whole cluster demoted; drop the instance
        new_instances.append(
            CrossbarInstance(
                rows=instance.rows,
                cols=instance.cols,
                size=physical.size,
                connections=instance.connections[~lost],
            )
        )
        surviving_physical.append(binding[k])

    new_synapses = np.concatenate(synapse_parts)
    lost_after = new_synapses.shape[0] - mapping.num_synapses  # the demoted connections
    netlist = build_netlist(
        mapping.network.size, new_instances, new_synapses, mapping.library
    )
    repaired = MappingResult(
        name=f"{mapping.name}+repair",
        network=mapping.network,
        instances=new_instances,
        synapse_connections=new_synapses,
        netlist=netlist,
        library=mapping.library,
        metadata=dict(mapping.metadata),
    )
    repaired.metadata["physical_binding"] = tuple(surviving_physical)
    defect_map.subset(surviving_physical).attach(repaired)
    repaired.validate()

    report = RepairReport(
        rates=defect_map.rates,
        connections_lost_before=lost_before,
        connections_lost_after_rebinding=lost_after,
        synapses_added=lost_after,
        clusters_rebound=sum(1 for k, p in enumerate(binding) if p != k),
        clusters_demoted=clusters_demoted,
        spares_used=sum(1 for p in binding if p >= len(instances)),
        area_before_um2=mapping.netlist.total_cell_area,
        area_after_um2=netlist.total_cell_area,
        binding=tuple(binding),
    )
    repaired.metadata["repair_report"] = report.summary()
    return repaired, report
