"""Netlists — the physical-design input (paper Sec. 3.5).

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

A :class:`Netlist` is seven arrays, four indexed by cell and three by
wire; placement, routing, the cost model and the verifier all read them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hardware.library import CrossbarLibrary
from repro.networks.connection_matrix import ConnectionMatrix

#: Floor on wire weights so no wire is invisible to the objective.
_MIN_WIRE_WEIGHT = 0.05


class CellKind(enum.IntEnum):
    """The codes of :attr:`Netlist.kinds`: the three mixed-size cell families."""

    NEURON = 0
    CROSSBAR = 1
    SYNAPSE = 2


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


#: The dtype of each netlist array: the per-cell arrays, then the per-wire ones.
_ARRAY_GROUPS = (
    {"kinds": np.int8, "widths": np.float64, "heights": np.float64, "delays_ns": np.float64},
    {"sources": np.intp, "targets": np.intp, "weights": np.float64},
)


def _finite_above(values: np.ndarray, low: float, inclusive: bool = False) -> np.ndarray:
    """``low < values < inf`` (``low <= values`` when inclusive); False at NaN."""
    above = values >= low if inclusive else values > low
    return above & (values < np.inf)


@dataclass(eq=False)
class Netlist:
    """Cells plus weighted 2-pin wires — the input to placement and routing.

    Cell ``i`` is of kind ``kinds[i]`` (a :class:`CellKind` code), measures
    ``widths[i] × heights[i]`` µm and has intrinsic delay ``delays_ns[i]``.
    Wire ``k`` joins cell ``sources[k]`` to cell ``targets[k]`` with weight
    ``weights[k]``.  The constructor copies each array to its dtype
    (``int8`` kinds, ``intp`` endpoints, ``float64`` otherwise), makes it
    read-only and rejects a malformed netlist, naming the first bad cell or
    wire.
    """

    kinds: np.ndarray
    widths: np.ndarray
    heights: np.ndarray
    delays_ns: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for dtypes in _ARRAY_GROUPS:
            arrays = {name: np.array(getattr(self, name), dtype=dtypes[name]) for name in dtypes}
            shapes = [array.shape for array in arrays.values()]
            if len(shapes[0]) != 1 or len(set(shapes)) != 1:
                raise ValueError(
                    f"{', '.join(arrays)} must be 1-D and of one length, got shapes {shapes}"
                )
            for name, array in arrays.items():
                array.flags.writeable = False
                setattr(self, name, array)
        n = self.num_cells
        endpoint = f"a cell index in [0, {n})"
        rules = (
            ("cell", "kind", self.kinds, np.isin(self.kinds, list(CellKind)), "a CellKind code"),
            ("cell", "width", self.widths, _finite_above(self.widths, 0), "finite and > 0"),
            ("cell", "height", self.heights, _finite_above(self.heights, 0), "finite and > 0"),
            (
                "cell", "delay", self.delays_ns,
                _finite_above(self.delays_ns, 0, inclusive=True), "finite and >= 0",
            ),
            ("wire", "source", self.sources, (self.sources >= 0) & (self.sources < n), endpoint),
            ("wire", "target", self.targets, (self.targets >= 0) & (self.targets < n), endpoint),
            ("wire", "target", self.targets, self.targets != self.sources, "other than its source"),
            ("wire", "weight", self.weights, _finite_above(self.weights, 0), "finite and > 0"),
        )
        for element, quantity, values, ok, requirement in rules:
            bad = np.flatnonzero(~ok)
            if bad.size:
                index = int(bad[0])
                raise ValueError(
                    f"{element} {index}: {quantity} {values[index].item()} must be {requirement}"
                )

    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return int(self.kinds.shape[0])

    @property
    def num_wires(self) -> int:
        """Number of wires."""
        return int(self.sources.shape[0])

    @property
    def total_cell_area(self) -> float:
        """Sum of cell footprints in µm²."""
        return float(np.sum(self.widths * self.heights))

    def incident_wires(self) -> List[np.ndarray]:
        """Per cell, the indices of the wires touching it, ascending."""
        if not self.num_cells:
            return []
        wire_ids = np.tile(np.arange(self.num_wires), 2)
        ends = np.concatenate([self.sources, self.targets])
        bounds = np.cumsum(np.bincount(ends, minlength=self.num_cells))[:-1]
        return np.split(wire_ids[np.lexsort((wire_ids, ends))], bounds)


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
    Wire order: per instance a neuron → crossbar wire for each of its rows,
    then a crossbar → neuron wire for each of its columns; then per synapse
    ``i → synapse`` and ``synapse → j``.
    """
    if n_neurons < 1:
        raise ValueError(f"n_neurons must be >= 1, got {n_neurons}")
    pairs = np.array(synapse_connections, dtype=np.intp).reshape(-1, 2)
    outside = np.flatnonzero(~np.all((pairs >= 0) & (pairs < n_neurons), axis=1))
    if outside.size:
        i, j = pairs[outside[0]]
        raise ValueError(
            f"synapse {outside[0]}: connection ({i}, {j}) outside neuron range [0, {n_neurons})"
        )
    n, k, m = n_neurons, len(instances), pairs.shape[0]
    reference_delay = library.technology.crossbar_delay_ns(library.max_size)
    specs = [library.spec(instance.size) for instance in instances]
    crossbar_delays = np.array([spec.delay_ns for spec in specs], dtype=np.float64)
    synapse = library.synapse
    sides = np.concatenate(
        [
            np.full(n, library.neuron.side_um),
            np.array([spec.side_um for spec in specs], dtype=np.float64),
            np.full(m, synapse.side_um),
        ]
    )

    # Crossbar ports: each instance's rows, then its columns.
    row_counts = np.array([len(x.rows) for x in instances], dtype=np.intp)
    col_counts = np.array([len(x.cols) for x in instances], dtype=np.intp)
    port_counts = row_counts + col_counts
    port_neurons = np.fromiter(
        itertools.chain.from_iterable(itertools.chain(x.rows, x.cols) for x in instances),
        dtype=np.intp,
        count=int(port_counts.sum()),
    )
    outside = np.flatnonzero((port_neurons < 0) | (port_neurons >= n))
    if outside.size:
        instance = int(np.searchsorted(np.cumsum(port_counts), outside[0], side="right"))
        raise ValueError(
            f"crossbar instance {instance}: neuron {port_neurons[outside[0]]} "
            f"outside neuron range [0, {n})"
        )
    is_row = np.repeat(np.tile([True, False], k), np.stack([row_counts, col_counts], 1).ravel())
    port_crossbars = np.repeat(np.arange(n, n + k), port_counts)
    port_weights = np.repeat(
        np.maximum(crossbar_delays / reference_delay, _MIN_WIRE_WEIGHT), port_counts
    )

    # Synapse wires: i -> synapse, then synapse -> j.
    synapse_cells = np.arange(n + k, n + k + m)
    synapse_sources = np.stack([pairs[:, 0], synapse_cells], 1).ravel()
    synapse_targets = np.stack([synapse_cells, pairs[:, 1]], 1).ravel()
    synapse_weight = max(synapse.delay_ns / reference_delay, _MIN_WIRE_WEIGHT)
    return Netlist(
        kinds=np.repeat(np.array(list(CellKind), dtype=np.int8), [n, k, m]),
        widths=sides,
        heights=sides,
        delays_ns=np.concatenate([np.zeros(n), crossbar_delays, np.full(m, synapse.delay_ns)]),
        sources=np.concatenate([np.where(is_row, port_neurons, port_crossbars), synapse_sources]),
        targets=np.concatenate([np.where(is_row, port_crossbars, port_neurons), synapse_targets]),
        weights=np.concatenate([port_weights, np.full(2 * m, synapse_weight)]),
    )


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
            "netlist_wires": self.netlist.num_wires,
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
