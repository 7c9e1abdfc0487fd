"""Synthetic sparse-network generators.

These provide controlled topologies for unit tests, property tests and
ablations: uniform random sparsity ("randomly distributed connections",
Sec. 3.2), planted block structure (the ideal case for clustering),
distance-decay connectivity (the neocortex locality of Sec. 2.2 [9]), and a
scale-free topology built on networkx.  The uniform and scale-free
generators emit edge arrays, so they never hold a dense ``n × n`` array and
scale to 50k+ neurons; the block and distance-decay ones draw a dense
probability field and are meant for small networks.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from repro.networks.connection_matrix import ConnectionMatrix
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive, check_probability

#: Row-block size of the chunked uniform sampler.
_CHUNK_ROWS = 2048


def random_sparse_network(
    n: int,
    density: float,
    symmetric: bool = True,
    rng: RngLike = None,
    name: str = "random",
) -> ConnectionMatrix:
    """Uniform random binary network with expected ``density`` off-diagonal fill.

    The ``n × n`` uniform field is drawn in blocks of ``_CHUNK_ROWS`` rows
    and kept as edges, so no dense ``n × n`` array is ever held.  Because
    ``Generator.random`` fills row-major and successive calls continue the
    same stream, the edges are those of ``rng.random((n, n)) < density``
    without its diagonal (united with the transpose when ``symmetric``),
    whatever the block size.
    """
    check_positive("n", n)
    check_probability("density", density)
    rng = ensure_rng(rng)
    row_parts = []
    col_parts = []
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        block = rng.random((stop - start, n)) < density
        local_rows, cols = np.nonzero(block)
        rows = local_rows + start
        off_diagonal = rows != cols
        row_parts.append(rows[off_diagonal])
        col_parts.append(cols[off_diagonal])
    rows = np.concatenate(row_parts)
    cols = np.concatenate(col_parts)
    if symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return ConnectionMatrix.from_edges(n, (rows, cols), name=name)


def block_diagonal_network(
    block_sizes: Sequence[int],
    within_density: float = 0.8,
    between_density: float = 0.01,
    rng: RngLike = None,
    name: str = "blocks",
) -> ConnectionMatrix:
    """Planted block-diagonal network — dense blocks, sparse background.

    The ideal clustering benchmark: MSC should recover the planted blocks.
    """
    check_probability("within_density", within_density)
    check_probability("between_density", between_density)
    sizes = [int(s) for s in block_sizes]
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError(f"block_sizes must be positive integers, got {block_sizes}")
    rng = ensure_rng(rng)
    n = sum(sizes)
    w = (rng.random((n, n)) < between_density).astype(np.uint8)
    start = 0
    for size in sizes:
        block = (rng.random((size, size)) < within_density).astype(np.uint8)
        w[start : start + size, start : start + size] = block
        start += size
    np.fill_diagonal(w, 0)
    w = np.maximum(w, w.T)
    return ConnectionMatrix.from_dense(w, name=name)


def distance_decay_network(
    n: int,
    scale: float = 10.0,
    base_probability: float = 0.9,
    rng: RngLike = None,
    name: str = "distance-decay",
) -> ConnectionMatrix:
    """Locality-biased network: P(i↔j) = base · exp(-|i-j| / scale).

    Mirrors the biological observation the paper cites (Sec. 2.2 [9]) that
    cortical connectivity is concentrated in a spatial neighbourhood.
    """
    check_positive("n", n)
    check_positive("scale", scale)
    check_probability("base_probability", base_probability)
    rng = ensure_rng(rng)
    idx = np.arange(n)
    distance = np.abs(idx[:, None] - idx[None, :])
    probability = base_probability * np.exp(-distance / scale)
    w = (rng.random((n, n)) < probability).astype(np.uint8)
    np.fill_diagonal(w, 0)
    w = np.maximum(w, w.T)
    return ConnectionMatrix.from_dense(w, name=name)


def scale_free_network(
    n: int,
    attachment: int = 2,
    rng: RngLike = None,
    name: str = "scale-free",
) -> ConnectionMatrix:
    """Barabási–Albert scale-free network via networkx.

    Produces hub-dominated sparse topologies, a stress case for clustering
    because hubs resist clean partitioning.
    """
    check_positive("n", n)
    check_positive("attachment", attachment)
    if attachment >= n:
        raise ValueError(f"attachment ({attachment}) must be < n ({n})")
    rng = ensure_rng(rng)
    seed = int(rng.integers(0, 2**31 - 1))
    graph = nx.barabasi_albert_graph(n, attachment, seed=seed)
    # Build straight from the (undirected) edge set — equivalent to the old
    # nx.to_numpy_array densification but memory-safe at 50k+ neurons.
    pairs = np.array(graph.edges(), dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return ConnectionMatrix.from_edges(n, (rows, cols), name=name)
