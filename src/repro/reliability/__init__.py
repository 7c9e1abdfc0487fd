"""Reliability: defect maps, fault-aware repair, Monte-Carlo yield (extension).

The paper caps crossbars at 64×64 because defects and variation destroy
reliability at scale (Sec. 2.1, ref [6]); this package feeds that concern
back into the EDA flow:

* :mod:`~repro.reliability.defects` — sampled per-instance stuck-at cells
  and dead row/column lines (:class:`DefectMap`).
* :mod:`~repro.reliability.repair` — re-bind clusters over the physical
  crossbar pool (plus spares), demote unrepairable connections to discrete
  synapses (:func:`repair_mapping`, :class:`RepairReport`).
* :mod:`~repro.reliability.yield_eval` — Monte-Carlo functional yield via
  Hopfield recall on the simulated faulty hardware (:func:`evaluate_yield`).
"""

from repro.reliability.defects import (
    DefectMap,
    DefectRates,
    InstanceDefects,
    count_lost_connections,
    lost_connection_mask,
    lost_connections,
    sample_defect_map,
    sample_instance_defects,
)
from repro.reliability.repair import RepairReport, repair_mapping
from repro.reliability.yield_eval import (
    YieldCurve,
    YieldPoint,
    evaluate_yield,
    hardware_recognition_rate,
)

__all__ = [
    "DefectMap",
    "DefectRates",
    "InstanceDefects",
    "RepairReport",
    "YieldCurve",
    "YieldPoint",
    "count_lost_connections",
    "evaluate_yield",
    "hardware_recognition_rate",
    "lost_connection_mask",
    "lost_connections",
    "repair_mapping",
    "sample_defect_map",
    "sample_instance_defects",
]
