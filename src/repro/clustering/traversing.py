"""The traversing baseline for cluster-size limiting (paper Sec. 3.3).

"The limit of crossbar size can be passively imposed by exhaustively
increasing the value of k in MSC until the size of the largest crossbar is
below the size limit." — the paper uses this as the runtime baseline that
GCP beats by roughly 2× (Fig. 4: 190 ms vs 106 ms on the 400×400 net).
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.clustering.result import ClusteringResult
from repro.clustering.spectral import modified_spectral_clustering
from repro.networks.connection_matrix import ConnectionMatrix
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_whole_number


def traversing_clustering(
    network: Union[ConnectionMatrix, np.ndarray],
    max_size: int,
    rng: RngLike = None,
) -> ClusteringResult:
    """Scan ``k`` upward until the largest MSC cluster fits ``max_size``.

    Each step is a full MSC run, eigendecomposition included, as the
    paper's baseline "exhaustively increas[es] the value of k in MSC".

    Returns
    -------
    ClusteringResult
        Partition with ``max(cluster sizes) <= max_size``,
        ``method == "traversing"``.
    """
    rng = ensure_rng(rng)
    if isinstance(network, ConnectionMatrix):
        n = network.size
    else:
        n = np.asarray(network).shape[0]
    max_size = check_whole_number("max_size", max_size)
    start_k = max(1, min(n, math.ceil(n / max_size)))
    attempts = 0
    for k in range(start_k, n + 1):
        attempts += 1
        labels = modified_spectral_clustering(network, k, rng=rng).labels
        if np.bincount(labels, minlength=k).max() <= max_size:
            return ClusteringResult(
                labels=labels,
                method="traversing",
                metadata={"max_size": max_size, "attempts": attempts, "final_k": k},
            )
    # k == n always satisfies any max_size >= 1, so we cannot get here.
    raise RuntimeError("traversing failed to satisfy the size limit")  # pragma: no cover
