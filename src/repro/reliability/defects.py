"""Per-instance crossbar defect maps (extension; paper Sec. 2.1, ref [6]).

The paper caps crossbars at 64×64 because device defects, process variation
and IR-drop degrade reliability as arrays grow.  :mod:`repro.hardware.
simulation` models those non-idealities *statistically*; this module models
them *structurally*: a :class:`DefectMap` samples, per physical crossbar
instance, which cells are stuck (off or on) and which whole row/column
lines are dead.  A defect map is the input to the fault-aware repair pass
(:mod:`repro.reliability.repair`) and to Monte-Carlo yield evaluation
(:mod:`repro.reliability.yield_eval`).

Conventions
-----------
A connection of a :class:`~repro.hardware.crossbar.CrossbarInstance`
occupies the local cell that :meth:`~repro.hardware.crossbar.
CrossbarInstance.local_cells` gives it on its physical crossbar; a cell is
*dead* when it is stuck (either way) or lies on a dead row/column line.  A
connection landing on a dead cell is functionally lost until repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.crossbar import CrossbarInstance
from repro.mapping.netlist import MappingResult
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class DefectRates:
    """Configurable defect rates for sampling a :class:`DefectMap`.

    Attributes
    ----------
    cell_stuck_off / cell_stuck_on:
        Per-cell probabilities of a stuck-at fault (stuck-off devices read
        as weight 0, stuck-on as full conductance).
    row_line / col_line:
        Per-line probabilities that an entire row/column line is dead
        (broken wordline/bitline — every cell on it is unusable).
    """

    cell_stuck_off: float = 0.0
    cell_stuck_on: float = 0.0
    row_line: float = 0.0
    col_line: float = 0.0

    def __post_init__(self) -> None:
        check_probability("cell_stuck_off", self.cell_stuck_off)
        check_probability("cell_stuck_on", self.cell_stuck_on)
        check_probability("row_line", self.row_line)
        check_probability("col_line", self.col_line)
        if self.cell_stuck_off + self.cell_stuck_on > 1.0:
            raise ValueError("cell_stuck_off + cell_stuck_on exceed 1")

    @property
    def any_defects(self) -> bool:
        """True when any rate is nonzero."""
        return (
            self.cell_stuck_off > 0.0
            or self.cell_stuck_on > 0.0
            or self.row_line > 0.0
            or self.col_line > 0.0
        )

    @classmethod
    def coerce(cls, value) -> "DefectRates":
        """Accept a :class:`DefectRates` or a scalar stuck-off cell rate."""
        if isinstance(value, cls):
            return value
        return cls(cell_stuck_off=float(value))


@dataclass
class InstanceDefects:
    """The sampled defects of one physical crossbar instance."""

    size: int
    stuck_off: np.ndarray
    stuck_on: np.ndarray
    dead_rows: np.ndarray
    dead_cols: np.ndarray

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        s = self.size
        self.stuck_off = np.asarray(self.stuck_off, dtype=bool)
        self.stuck_on = np.asarray(self.stuck_on, dtype=bool)
        self.dead_rows = np.asarray(self.dead_rows, dtype=bool)
        self.dead_cols = np.asarray(self.dead_cols, dtype=bool)
        if self.stuck_off.shape != (s, s) or self.stuck_on.shape != (s, s):
            raise ValueError(f"stuck masks must have shape ({s}, {s})")
        if self.dead_rows.shape != (s,) or self.dead_cols.shape != (s,):
            raise ValueError(f"line masks must have shape ({s},)")
        if np.any(self.stuck_off & self.stuck_on):
            raise ValueError("a cell cannot be stuck-off and stuck-on at once")

    @classmethod
    def pristine(cls, size: int) -> "InstanceDefects":
        """A defect-free instance of the given size."""
        return cls(
            size=size,
            stuck_off=np.zeros((size, size), dtype=bool),
            stuck_on=np.zeros((size, size), dtype=bool),
            dead_rows=np.zeros(size, dtype=bool),
            dead_cols=np.zeros(size, dtype=bool),
        )

    def dead_mask(self) -> np.ndarray:
        """Boolean ``(s, s)`` mask of unusable cells (stuck or on a dead line)."""
        mask = self.stuck_off | self.stuck_on
        mask = mask | self.dead_rows[:, None] | self.dead_cols[None, :]
        return mask

    @property
    def num_dead_cells(self) -> int:
        """Count of unusable cells."""
        return int(self.dead_mask().sum())

    @property
    def dead_cell_fraction(self) -> float:
        """Unusable cells over ``s²``."""
        return self.num_dead_cells / float(self.size * self.size)

    @property
    def fully_defective(self) -> bool:
        """True when no cell of the instance is usable."""
        return bool(self.dead_mask().all())


@dataclass
class DefectMap:
    """Sampled defects for a pool of physical crossbar instances.

    The first ``len(mapping.instances)`` entries align positionally with the
    mapping's instances; any further entries are *spare* physical crossbars
    that the repair pass may re-bind clusters onto.
    """

    rates: DefectRates
    instances: List[InstanceDefects]
    metadata: dict = field(default_factory=dict)

    @property
    def num_instances(self) -> int:
        """Physical crossbars in the pool (mapped + spares)."""
        return len(self.instances)

    def dead_cell_fraction(self) -> float:
        """Unusable cells over all pool cells (0 for an empty pool)."""
        total = sum(d.size * d.size for d in self.instances)
        if total == 0:
            return 0.0
        return sum(d.num_dead_cells for d in self.instances) / float(total)

    def subset(self, indices: Sequence[int]) -> "DefectMap":
        """A defect map over ``instances[i] for i in indices`` (shared arrays)."""
        return DefectMap(
            rates=self.rates,
            instances=[self.instances[int(i)] for i in indices],
            metadata=dict(self.metadata),
        )

    def attach(self, mapping: MappingResult) -> MappingResult:
        """Store this defect map in ``mapping.metadata['defect_map']``."""
        mapping.metadata["defect_map"] = self
        return mapping


def lost_connection_mask(instance: CrossbarInstance, defects: InstanceDefects) -> np.ndarray:
    """Per connection of ``instance``, whether it lands on a dead cell of ``defects``.

    Raises ``ValueError`` when ``defects`` is too small to host ``instance``.
    """
    if defects.size < max(instance.rows.size, instance.cols.size):
        raise ValueError(
            f"physical crossbar of size {defects.size} cannot host an instance "
            f"with {instance.rows.size} rows / {instance.cols.size} cols"
        )
    rows_local, cols_local = instance.local_cells()
    return defects.dead_mask()[rows_local, cols_local]


def lost_connections(instance: CrossbarInstance, defects: InstanceDefects) -> np.ndarray:
    """Connections of ``instance`` that land on dead cells of ``defects``, as
    an ``(k, 2)`` array in connection order."""
    return instance.connections[lost_connection_mask(instance, defects)]


def count_lost_connections(instance: CrossbarInstance, defects: InstanceDefects) -> int:
    """Number of instance connections landing on dead cells; one more than
    the instance's connections when ``defects`` cannot host it."""
    if defects.size < max(instance.rows.size, instance.cols.size):
        return instance.utilized_connections + 1  # infeasible binding sentinel
    return int(lost_connection_mask(instance, defects).sum())


def sample_instance_defects(
    size: int, rates: DefectRates, rng: RngLike = None
) -> InstanceDefects:
    """Sample one physical crossbar's defects from the configured rates."""
    rng = ensure_rng(rng)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    # One uniform roll per cell splits into stuck-off / stuck-on / good,
    # mirroring the statistical injection in hardware.simulation.
    roll = rng.random((size, size))
    stuck_off = roll < rates.cell_stuck_off
    stuck_on = (roll >= rates.cell_stuck_off) & (
        roll < rates.cell_stuck_off + rates.cell_stuck_on
    )
    dead_rows = rng.random(size) < rates.row_line
    dead_cols = rng.random(size) < rates.col_line
    return InstanceDefects(
        size=size,
        stuck_off=stuck_off,
        stuck_on=stuck_on,
        dead_rows=dead_rows,
        dead_cols=dead_cols,
    )


def sample_defect_map(
    mapping: MappingResult,
    rates,
    rng: RngLike = None,
    spare_instances: int = 0,
    spare_size: Optional[int] = None,
) -> DefectMap:
    """Sample a defect map for ``mapping``'s crossbar pool.

    Parameters
    ----------
    mapping:
        The mapped design; one physical crossbar is sampled per instance.
    rates:
        A :class:`DefectRates` or a scalar stuck-off cell probability.
    spare_instances:
        Extra physical crossbars appended to the pool for the repair pass.
    spare_size:
        Dimension of the spares; defaults to the largest instance size in
        the mapping (or the library maximum when the mapping is empty) so
        any cluster can be re-bound onto a spare.
    """
    rates = DefectRates.coerce(rates)
    rng = ensure_rng(rng)
    if spare_instances < 0:
        raise ValueError(f"spare_instances must be >= 0, got {spare_instances}")
    sizes = [instance.size for instance in mapping.instances]
    if spare_instances:
        if spare_size is None:
            spare_size = max(sizes) if sizes else mapping.library.max_size
        if spare_size not in mapping.library:
            raise ValueError(
                f"spare_size {spare_size} is not in the library {mapping.library.sizes}"
            )
        sizes.extend([int(spare_size)] * spare_instances)
    instances = [sample_instance_defects(s, rates, rng=rng) for s in sizes]
    return DefectMap(
        rates=rates,
        instances=instances,
        metadata={
            "mapped_instances": mapping.num_crossbars,
            "spare_instances": spare_instances,
        },
    )
