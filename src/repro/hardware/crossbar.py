"""Crossbars: the library cell and the placed instance (paper Sec. 2.1, 3.4).

A crossbar of size ``s`` connects ``s`` input neurons to ``s`` output
neurons through ``s²`` memristors at the wire crossings; its physical
footprint and read delay come from the :class:`~repro.hardware.technology.
Technology` model (:class:`CrossbarSpec`).  A :class:`CrossbarInstance` is
one crossbar of a hybrid topology: ISC emits them, the mappings turn them
into netlist cells, and :func:`check_exact_cover` asserts that a topology's
crossbars plus its discrete synapses implement a network exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np

from repro.hardware.technology import Technology

if TYPE_CHECKING:
    from repro.networks.connection_matrix import ConnectionMatrix


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
    synapses: Sequence[Tuple[int, int]],
    network: "ConnectionMatrix",
) -> None:
    """Assert that the crossbar connections plus the synapses are exactly
    the edges of ``network``, each implemented once.

    Raises ``AssertionError`` naming the first phantom pair (one that is
    not an edge of the network), else the first pair implemented twice
    (crossbar connections first, in instance order, then synapses), else
    the first missing edge in row-major order.
    """
    pairs = itertools.chain(
        itertools.chain.from_iterable(instance.connections for instance in instances),
        synapses,
    )
    implemented = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64)
    implemented = implemented.reshape(-1, 2)
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
