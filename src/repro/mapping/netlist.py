"""Cells, wires and netlists — the physical-design input (paper Sec. 3.5).

"In the phase of placement and routing, the crossbars and neurons are
considered as cells" with "mixed-size cells including neurons, memristors,
and crossbars" and "various wire weights between memristors and crossbars".
We model:

* one **neuron cell** per network neuron;
* one **crossbar cell** per placed crossbar;
* one **synapse cell** per outlier connection (a discrete memristor);
* 2-pin **wires**: neuron → crossbar for every row the neuron drives,
  crossbar → neuron for every column it reads, and neuron → synapse →
  neuron for each discrete connection.  Wire weights are RC-delay based —
  wires attached to slower (larger) cells are more timing-critical and get
  a larger weight, which the WA wirelength model then shortens first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hardware.library import CrossbarLibrary
from repro.networks.connection_matrix import ConnectionMatrix

#: Floor on wire weights so no wire is invisible to the objective.
_MIN_WIRE_WEIGHT = 0.05


class CellKind(str, enum.Enum):
    """The three mixed-size cell families of the AutoNCS physical design."""

    NEURON = "neuron"
    CROSSBAR = "crossbar"
    SYNAPSE = "synapse"


@dataclass(frozen=True)
class CrossbarInstance:
    """A placed crossbar connecting row neurons to column neurons.

    AutoNCS clusters yield ``rows == cols`` (a neuron set's mutual
    connections); FullCro block tiles have distinct row/column groups.
    """

    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    size: int
    connections: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if len(self.rows) > self.size or len(self.cols) > self.size:
            raise ValueError(
                f"{len(self.rows)} rows / {len(self.cols)} cols exceed "
                f"crossbar size {self.size}"
            )
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise ValueError("row/column neuron lists must be unique")
        row_set, col_set = set(self.rows), set(self.cols)
        for i, j in self.connections:
            if i not in row_set or j not in col_set:
                raise ValueError(f"connection ({i}, {j}) outside the crossbar's rows/cols")
        if len(set(self.connections)) != len(self.connections):
            raise ValueError("duplicate connections in a crossbar instance")

    @property
    def utilized_connections(self) -> int:
        """The paper's ``m`` for this crossbar."""
        return len(self.connections)

    @property
    def utilization(self) -> float:
        """``u = m / s²``."""
        return self.utilized_connections / float(self.size * self.size)


@dataclass(frozen=True)
class Cell:
    """One placeable object with its physical footprint and intrinsic delay."""

    name: str
    kind: CellKind
    width: float
    height: float
    intrinsic_delay_ns: float = 0.0
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"cell {self.name}: width/height must be > 0")
        if self.intrinsic_delay_ns < 0:
            raise ValueError(f"cell {self.name}: intrinsic_delay_ns must be >= 0")

    @property
    def area(self) -> float:
        """Footprint in µm²."""
        return self.width * self.height


@dataclass(frozen=True)
class Wire:
    """A weighted 2-pin wire between two cells (by cell index)."""

    source: int
    target: int
    weight: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError(f"wire {self.name!r} connects a cell to itself")
        if self.weight <= 0:
            raise ValueError(f"wire {self.name!r}: weight must be > 0, got {self.weight}")


@dataclass
class Netlist:
    """Cells plus weighted wires — the input to placement and routing."""

    cells: List[Cell]
    wires: List[Wire]

    def __post_init__(self) -> None:
        n = len(self.cells)
        for wire in self.wires:
            if not (0 <= wire.source < n and 0 <= wire.target < n):
                raise ValueError(
                    f"wire {wire.name!r} references cell indices "
                    f"({wire.source}, {wire.target}) outside [0, {n})"
                )

    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return len(self.cells)

    @property
    def num_wires(self) -> int:
        """Number of wires."""
        return len(self.wires)

    @property
    def total_cell_area(self) -> float:
        """Sum of cell footprints in µm²."""
        return float(sum(cell.area for cell in self.cells))

    def cells_of_kind(self, kind: CellKind) -> List[int]:
        """Indices of all cells of one kind."""
        return [i for i, cell in enumerate(self.cells) if cell.kind == kind]

    def widths(self) -> np.ndarray:
        """Cell widths as an array (placement consumes vectors)."""
        return np.array([cell.width for cell in self.cells])

    def heights(self) -> np.ndarray:
        """Cell heights as an array."""
        return np.array([cell.height for cell in self.cells])

    def wire_endpoints(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, targets, weights)`` arrays over all wires."""
        sources = np.array([w.source for w in self.wires], dtype=int)
        targets = np.array([w.target for w in self.wires], dtype=int)
        weights = np.array([w.weight for w in self.wires], dtype=float)
        return sources, targets, weights


@dataclass
class FaninFanoutBreakdown:
    """Per-neuron wire counts split by implementation medium (Fig. 7–9(d)).

    ``crossbar[i]`` counts the crossbar ports neuron ``i`` occupies (one
    wire per occupied row or column), ``synapse[i]`` the discrete-synapse
    wires incident to it; ``total`` is their sum — the paper's
    "fanin+fanout" congestion proxy.
    """

    crossbar: np.ndarray
    synapse: np.ndarray

    @property
    def total(self) -> np.ndarray:
        """Crossbar plus synapse wire counts per neuron."""
        return self.crossbar + self.synapse

    @property
    def average_total(self) -> float:
        """Mean fanin+fanout over all neurons (the "Avg. sum" of Fig. 9(d))."""
        return float(self.total.mean()) if self.total.size else 0.0


def fanin_fanout_breakdown(
    n_neurons: int,
    instances: Sequence[CrossbarInstance],
    synapse_connections: Sequence[Tuple[int, int]],
) -> FaninFanoutBreakdown:
    """Count per-neuron crossbar-port and synapse wires."""
    crossbar = np.zeros(n_neurons, dtype=int)
    synapse = np.zeros(n_neurons, dtype=int)
    for instance in instances:
        for neuron in instance.rows:
            crossbar[neuron] += 1
        for neuron in instance.cols:
            crossbar[neuron] += 1
    for i, j in synapse_connections:
        synapse[i] += 1
        synapse[j] += 1
    return FaninFanoutBreakdown(crossbar=crossbar, synapse=synapse)


def build_netlist(
    n_neurons: int,
    instances: Sequence[CrossbarInstance],
    synapse_connections: Sequence[Tuple[int, int]],
    library: CrossbarLibrary,
) -> Netlist:
    """Construct the physical netlist for a mapped design.

    Cell order: neurons ``0..n-1`` first (cell index == neuron index), then
    one cell per crossbar instance, then one cell per discrete synapse.
    """
    if n_neurons < 1:
        raise ValueError(f"n_neurons must be >= 1, got {n_neurons}")
    technology = library.technology
    cells: List[Cell] = []
    neuron_side = library.neuron.side_um
    for i in range(n_neurons):
        cells.append(
            Cell(
                name=f"neuron{i}",
                kind=CellKind.NEURON,
                width=neuron_side,
                height=neuron_side,
                intrinsic_delay_ns=0.0,
                metadata={"neuron": i},
            )
        )
    reference_delay = technology.crossbar_delay_ns(library.max_size)
    wires: List[Wire] = []
    for idx, instance in enumerate(instances):
        spec = library.spec(instance.size)
        cell_index = len(cells)
        cells.append(
            Cell(
                name=f"xbar{idx}_s{instance.size}",
                kind=CellKind.CROSSBAR,
                width=spec.side_um,
                height=spec.side_um,
                intrinsic_delay_ns=spec.delay_ns,
                metadata={"instance": idx, "size": instance.size},
            )
        )
        weight = max(spec.delay_ns / reference_delay, _MIN_WIRE_WEIGHT)
        for neuron in instance.rows:
            wires.append(
                Wire(source=neuron, target=cell_index, weight=weight, name=f"n{neuron}->x{idx}")
            )
        for neuron in instance.cols:
            wires.append(
                Wire(source=cell_index, target=neuron, weight=weight, name=f"x{idx}->n{neuron}")
            )
    synapse_side = library.synapse.side_um
    synapse_weight = max(library.synapse.delay_ns / reference_delay, _MIN_WIRE_WEIGHT)
    for idx, (i, j) in enumerate(synapse_connections):
        if not (0 <= i < n_neurons and 0 <= j < n_neurons):
            raise ValueError(f"synapse connection ({i}, {j}) outside neuron range")
        cell_index = len(cells)
        cells.append(
            Cell(
                name=f"syn{idx}_{i}_{j}",
                kind=CellKind.SYNAPSE,
                width=synapse_side,
                height=synapse_side,
                intrinsic_delay_ns=library.synapse.delay_ns,
                metadata={"connection": (i, j)},
            )
        )
        wires.append(Wire(source=i, target=cell_index, weight=synapse_weight, name=f"n{i}->s{idx}"))
        wires.append(Wire(source=cell_index, target=j, weight=synapse_weight, name=f"s{idx}->n{j}"))
    return Netlist(cells=cells, wires=wires)


@dataclass
class MappingResult:
    """A network fully mapped to hardware: instances + synapses + netlist."""

    name: str
    network: ConnectionMatrix
    instances: List[CrossbarInstance]
    synapse_connections: List[Tuple[int, int]]
    netlist: Netlist
    library: CrossbarLibrary
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_crossbars(self) -> int:
        """Number of placed crossbars."""
        return len(self.instances)

    @property
    def num_synapses(self) -> int:
        """Number of discrete synapses."""
        return len(self.synapse_connections)

    @property
    def average_utilization(self) -> float:
        """Mean crossbar utilization ``u`` over all instances."""
        if not self.instances:
            return 0.0
        return float(np.mean([x.utilization for x in self.instances]))

    @property
    def clustered_connection_ratio(self) -> float:
        """Fraction of connections absorbed by crossbars."""
        total = self.network.num_connections
        if total == 0:
            return 0.0
        clustered = sum(x.utilized_connections for x in self.instances)
        return clustered / total

    def crossbar_size_histogram(self) -> Dict[int, int]:
        """Size → count over placed crossbars."""
        histogram: Dict[int, int] = {}
        for instance in self.instances:
            histogram[instance.size] = histogram.get(instance.size, 0) + 1
        return dict(sorted(histogram.items()))

    def fanin_fanout(self) -> FaninFanoutBreakdown:
        """Per-neuron wire-count breakdown (Fig. 7–9(d))."""
        return fanin_fanout_breakdown(
            self.network.size, self.instances, self.synapse_connections
        )

    def validate(self) -> None:
        """Assert every network connection is implemented exactly once."""
        implemented: set = set()
        for instance in self.instances:
            for pair in instance.connections:
                assert pair not in implemented, f"connection {pair} implemented twice"
                implemented.add(pair)
        for pair in self.synapse_connections:
            assert pair not in implemented, f"synapse {pair} duplicates a crossbar connection"
            implemented.add(pair)
        expected = set(self.network.connection_list())
        assert implemented == expected, (
            f"mapping implements {len(implemented)} connections, "
            f"network has {len(expected)}"
        )

    def summary(self) -> Dict[str, float]:
        """Scalar summary used by reports and benchmark printouts."""
        histogram = self.crossbar_size_histogram()
        return {
            "design": self.name,
            "neurons": self.network.size,
            "connections": self.network.num_connections,
            "crossbars": self.num_crossbars,
            "synapses": self.num_synapses,
            "average_utilization": self.average_utilization,
            "clustered_ratio": self.clustered_connection_ratio,
            "mean_crossbar_size": (
                float(np.mean([x.size for x in self.instances])) if self.instances else 0.0
            ),
            "size_histogram": histogram,
            "average_fanin_fanout": self.fanin_fanout().average_total,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dict (the repo-wide result-object surface)."""
        return {
            **self.summary(),
            "netlist_cells": self.netlist.num_cells,
            "netlist_wires": len(self.netlist.wires),
        }

    def format_table(self) -> str:
        """Aligned plain-text summary (the repo-wide result-object surface)."""
        data = self.to_dict()
        width = max(len(key) for key in data)
        lines = [f"mapping {self.name}"]
        for key, value in data.items():
            if key == "design":
                continue
            if isinstance(value, float):
                rendered = f"{value:.4f}"
            else:
                rendered = str(value)
            lines.append(f"  {key:<{width}}  {rendered}")
        return "\n".join(lines)
