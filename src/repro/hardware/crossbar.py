"""Crossbars: the library cell and the placed instance (paper Sec. 2.1, 3.4).

A crossbar of size ``s`` connects ``s`` input neurons to ``s`` output
neurons through ``s²`` memristors at the wire crossings; its physical
footprint and read delay come from the :class:`~repro.hardware.technology.
Technology` model (:class:`CrossbarSpec`).  A :class:`CrossbarInstance` is
one crossbar of a hybrid topology: ISC emits them, the mappings turn them
into netlist cells, and :func:`check_exact_cover` asserts that a topology's
crossbars plus its discrete synapses implement a network exactly.

Neuron pairs are ``(m, 2)`` ``int64`` arrays everywhere (:func:`pair_array`):
a crossbar's connections, ISC's outliers and a mapping's discrete synapses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np

from repro.hardware.technology import Technology
from repro.utils.validation import check_whole_number

if TYPE_CHECKING:
    from repro.networks.connection_matrix import ConnectionMatrix


def _id_array(name: str, values, pairs: bool) -> np.ndarray:
    """``values`` as a read-only ``int64`` array of neuron ids: ``(m, 2)``
    when ``pairs``, else 1-D.  Raises ``ValueError`` naming ``name``."""
    shape = (-1, 2) if pairs else (-1,)
    array = np.asarray(values)
    if array.size == 0:
        array = np.empty(0, dtype=np.int64).reshape(shape)
    if (
        array.ndim != len(shape)
        or array.shape[1:] != shape[1:]
        or not np.issubdtype(array.dtype, np.integer)
    ):
        expected = "(i, j) pairs of integer" if pairs else "integer"
        raise ValueError(
            f"{name} must be {expected} neuron ids, got a {array.dtype} array "
            f"of shape {array.shape}"
        )
    array = array.astype(np.int64)
    array.flags.writeable = False
    return array


def pair_array(pairs, name: str = "pairs") -> np.ndarray:
    """``pairs`` as a read-only ``(m, 2)`` ``int64`` array, one ``(i, j)`` per row.

    Accepts an ``(m, 2)`` integer array or a sequence of ``(i, j)`` pairs,
    empty ones included, and keeps their order.
    """
    return _id_array(name, pairs, pairs=True)


def _positions(ids: np.ndarray, neurons: np.ndarray) -> np.ndarray:
    """Each of ``neurons``' index in the distinct ``ids``, -1 where absent."""
    if ids.size == 0:
        return np.full(neurons.shape, -1, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    positions = order[np.minimum(np.searchsorted(ids[order], neurons), ids.size - 1)]
    return np.where(ids[positions] == neurons, positions, -1)


@dataclass(frozen=True)
class CrossbarSpec:
    """Geometry and timing of one library crossbar size.

    Attributes
    ----------
    size:
        Dimension ``s`` — the crossbar offers ``s²`` connections.
    side_um / area_um2 / delay_ns:
        Physical side length, footprint, and read delay.
    """

    size: int
    side_um: float
    area_um2: float
    delay_ns: float

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        for name in ("side_um", "area_um2", "delay_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def capacity(self) -> int:
        """Total connections offered: ``s²`` (Sec. 3.1)."""
        return self.size * self.size

    @classmethod
    def from_technology(cls, size: int, technology: Technology) -> "CrossbarSpec":
        """Build the spec for ``size`` under ``technology``."""
        return cls(
            size=size,
            side_um=technology.crossbar_side_um(size),
            area_um2=technology.crossbar_area_um2(size),
            delay_ns=technology.crossbar_delay_ns(size),
        )


@dataclass(frozen=True, eq=False)
class CrossbarInstance:
    """A placed crossbar connecting row neurons to column neurons.

    AutoNCS clusters yield ``rows == cols`` (a neuron set's mutual
    connections); FullCro block tiles have distinct row/column groups.
    ``rows`` and ``cols`` are read-only ``int64`` arrays of distinct
    non-negative neuron ids and ``connections`` is a read-only ``(m, 2)``
    ``int64`` array of distinct ``(i, j)`` pairs, each with ``i`` in
    ``rows`` and ``j`` in ``cols``; the constructor accepts any sequences
    and keeps their order.
    """

    rows: np.ndarray
    cols: np.ndarray
    size: int
    connections: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", check_whole_number("size", self.size))
        object.__setattr__(self, "rows", _id_array("rows", self.rows, pairs=False))
        object.__setattr__(self, "cols", _id_array("cols", self.cols, pairs=False))
        object.__setattr__(self, "connections", pair_array(self.connections, "connections"))
        rows, cols, connections = self.rows, self.cols, self.connections
        for name, ids in (("rows", rows), ("cols", cols)):
            if ids.size and ids.min() < 0:
                raise ValueError(f"{name} must be non-negative neuron ids, got {ids.min()}")
        if rows.size > self.size or cols.size > self.size:
            raise ValueError(
                f"{rows.size} rows / {cols.size} cols exceed crossbar size {self.size}"
            )
        if np.unique(rows).size != rows.size or np.unique(cols).size != cols.size:
            raise ValueError("row/column neuron lists must be unique")
        row_cells, col_cells = self.local_cells()
        outside = np.flatnonzero((row_cells < 0) | (col_cells < 0))
        if outside.size:
            i, j = connections[outside[0]].tolist()
            raise ValueError(f"connection ({i}, {j}) outside the crossbar's rows/cols")
        if np.unique(row_cells * cols.size + col_cells).size != connections.shape[0]:
            raise ValueError("duplicate connections in a crossbar instance")

    def local_cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """The local ``(row, col)`` cell of each connection, in connection order.

        Connection ``(i, j)`` sits at ``i``'s position in :attr:`rows` and
        ``j``'s position in :attr:`cols` — the one rule by which the
        simulator programs a crossbar and the defect model finds the
        connections a dead cell loses.
        """
        return (
            _positions(self.rows, self.connections[:, 0]),
            _positions(self.cols, self.connections[:, 1]),
        )

    @property
    def utilized_connections(self) -> int:
        """The paper's ``m`` for this crossbar."""
        return int(self.connections.shape[0])

    @property
    def utilization(self) -> float:
        """``u = m / s²``."""
        return self.utilized_connections / float(self.size * self.size)


def size_histogram(instances: Sequence[CrossbarInstance]) -> Dict[int, int]:
    """Size → count over ``instances``, ascending by size (Fig. 7–9(c))."""
    return dict(sorted(Counter(instance.size for instance in instances).items()))


def mean_utilization(instances: Sequence[CrossbarInstance]) -> float:
    """Mean crossbar utilization ``u`` over ``instances`` (0 when none)."""
    if not instances:
        return 0.0
    return float(np.mean([instance.utilization for instance in instances]))


def clustered_connections(instances: Sequence[CrossbarInstance]) -> int:
    """Connections implemented by ``instances``: the sum of their ``m``."""
    return sum(instance.utilized_connections for instance in instances)


def check_exact_cover(
    instances: Sequence[CrossbarInstance],
    synapses,
    network: "ConnectionMatrix",
) -> None:
    """Assert that the crossbar connections plus the synapses are exactly
    the edges of ``network``, each implemented once.

    ``synapses`` holds ``(i, j)`` pairs (an ``(k, 2)`` array or a sequence).
    Raises ``AssertionError`` naming the first phantom pair (one that is
    not an edge of the network), else the first pair implemented twice
    (crossbar connections first, in instance order, then synapses), else
    the first missing edge in row-major order.
    """
    implemented = np.concatenate(
        [instance.connections for instance in instances]
        + [pair_array(synapses, "synapses")]
    )
    n = network.size
    rows, cols = network.connection_arrays()
    edges = rows * n + cols
    in_range = np.all((implemented >= 0) & (implemented < n), axis=1)
    keys = implemented[:, 0] * n + implemented[:, 1]
    phantom = np.flatnonzero(~in_range | ~np.isin(keys, edges))
    if phantom.size:
        pair = tuple(implemented[phantom[0]].tolist())
        raise AssertionError(f"connection {pair} is not in the network")
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        pair = tuple(implemented[repeats.min()].tolist())
        raise AssertionError(f"connection {pair} implemented twice")
    if keys.size < edges.size:
        first = int(np.flatnonzero(~np.isin(edges, keys))[0])
        pair = (int(rows[first]), int(cols[first]))
        raise AssertionError(
            f"connection {pair} is not implemented "
            f"({keys.size} of {edges.size} connections are)"
        )
