"""The FullCro baseline: brute-force maximum-size crossbars (paper Sec. 4.2).

"We define the baseline design as a full crossbar design (denoted as
'FullCro') that uses only crossbars with a size of 64 to implement the
neural network."  Neurons are partitioned into consecutive groups of the
maximum crossbar size; every (row-group, column-group) block containing at
least one connection is realized by one maximum-size crossbar.  No discrete
synapses are used.  FullCro's average utilization is the ISC stopping
threshold ``t`` of the experiments.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.crossbar import CrossbarInstance
from repro.hardware.library import CrossbarLibrary
from repro.mapping.netlist import MappingResult, build_netlist
from repro.networks.connection_matrix import ConnectionMatrix


def _block_sorted_edges(
    network: ConnectionMatrix, max_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges sorted in FullCro instance order, plus per-block edge counts.

    Returns ``(rows, cols, counts)``: the connection arrays reordered by
    ``(block_row, block_col, i, j)`` — exactly the order the historical
    per-block ``np.nonzero`` iteration visited them in — and the number of
    edges in each non-empty block, in the same block order.
    """
    rows, cols = network.connection_arrays()
    block_rows = rows // max_size
    block_cols = cols // max_size
    # lexsort keys: last key is primary → (block_row, block_col, i, j).
    order = np.lexsort((cols, rows, block_cols, block_rows))
    rows, cols = rows[order], cols[order]
    block_rows, block_cols = block_rows[order], block_cols[order]
    num_blocks = -(-network.size // max_size) if network.size else 0
    block_key = block_rows * max(num_blocks, 1) + block_cols
    _, starts, counts = np.unique(block_key, return_index=True, return_counts=True)
    # np.unique sorts the keys, which matches the (block_row, block_col)
    # iteration order already established by the lexsort.
    return rows, cols, counts


def fullcro_instances(
    network: ConnectionMatrix, max_size: int
) -> List[CrossbarInstance]:
    """Build the FullCro crossbar instances (one per non-empty block).

    Rows/columns of each instance are restricted to the neurons that carry
    at least one connection inside the block — unconnected rows would add
    dead wires that serve nothing.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    rows, cols, counts = _block_sorted_edges(network, max_size)
    pairs = np.stack([rows, cols], axis=1)
    stops = np.cumsum(counts)
    instances: List[CrossbarInstance] = []
    for start, stop in zip(stops - counts, stops):
        block = pairs[start:stop]
        instances.append(
            CrossbarInstance(
                rows=np.unique(block[:, 0]),
                cols=np.unique(block[:, 1]),
                size=max_size,
                connections=block,
            )
        )
    return instances


def fullcro_utilization(network: ConnectionMatrix, max_size: int = 64) -> float:
    """Average utilization of the FullCro design — ISC's stop threshold ``t``.

    "The iteration of ISC stops when the average crossbar utilization is
    below that of the baseline design" (Sec. 4.2).

    Computed straight from per-block edge counts — never instantiates the
    crossbars, so it stays O(connections) on 100k-neuron networks.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    _, _, counts = _block_sorted_edges(network, max_size)
    if counts.size == 0:
        return 0.0
    return float(np.mean(counts.astype(float) / float(max_size * max_size)))


def fullcro_mapping(
    network: ConnectionMatrix,
    library: Optional[CrossbarLibrary] = None,
    name: str = "FullCro",
) -> MappingResult:
    """Map ``network`` with only maximum-size crossbars and build its netlist."""
    if library is None:
        library = CrossbarLibrary()
    instances = fullcro_instances(network, library.max_size)
    synapses = np.empty((0, 2), dtype=np.int64)
    netlist = build_netlist(network.size, instances, synapses, library)
    result = MappingResult(
        name=name,
        network=network,
        instances=instances,
        synapse_connections=synapses,
        netlist=netlist,
        library=library,
        metadata={"max_size": library.max_size},
    )
    result.validate()
    return result
