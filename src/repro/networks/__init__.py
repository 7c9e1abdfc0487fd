"""Neural-network substrate: connection matrices and network builders.

This package provides everything AutoNCS consumes as input:

* :class:`~repro.networks.connection_matrix.ConnectionMatrix` — the binary
  connection topology (the "W" of the paper, Sec. 2.1).
* :mod:`~repro.networks.patterns` — random QR-code-like binary patterns used
  by the paper's testbenches (Sec. 4.1).
* :mod:`~repro.networks.hopfield` — sparse Hopfield networks storing those
  patterns, with recall and recognition-rate evaluation.
* :mod:`~repro.networks.ldpc` — LDPC parity-check-style bipartite networks
  (the 802.11 motivation of Sec. 2.2).
* :mod:`~repro.networks.generators` — synthetic sparse-network generators.
* :mod:`~repro.networks.metrics` — sparsity / degree / fanin+fanout metrics.
"""

from repro.networks.connection_matrix import ConnectionMatrix
from repro.networks.generators import (
    block_diagonal_network,
    distance_decay_network,
    random_sparse_network,
    scale_free_network,
)
from repro.networks.hopfield import HopfieldNetwork, recognition_rate
from repro.networks.ldpc import ldpc_network, regular_parity_check_matrix
from repro.networks.metrics import (
    degree_statistics,
    fanin_fanout,
    network_sparsity,
)
from repro.networks.patterns import qr_like_pattern, qr_like_patterns

__all__ = [
    "ConnectionMatrix",
    "HopfieldNetwork",
    "block_diagonal_network",
    "degree_statistics",
    "distance_decay_network",
    "fanin_fanout",
    "ldpc_network",
    "network_sparsity",
    "qr_like_pattern",
    "qr_like_patterns",
    "random_sparse_network",
    "recognition_rate",
    "regular_parity_check_matrix",
    "scale_free_network",
]
