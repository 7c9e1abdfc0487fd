"""Save / load connection matrices.

Two formats are supported:

* ``.npz`` — compressed numpy archive (canonical).  It stores the edge
  arrays (``n``, ``rows``, ``cols``), so a 100k-neuron network round-trips
  without densifying.  The loader also reads the legacy layout, a full
  dense ``matrix`` array.
* edge-list text — one ``i j`` pair per line, human-diffable.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.networks.connection_matrix import ConnectionMatrix

PathLike = Union[str, "os.PathLike[str]"]


def save_network_npz(network: ConnectionMatrix, path: PathLike) -> None:
    """Write ``network``'s edge arrays to a compressed ``.npz`` archive."""
    rows, cols = network.connection_arrays()
    np.savez_compressed(
        path,
        n=np.array(network.size, dtype=np.int64),
        rows=rows,
        cols=cols,
        name=np.array(network.name),
    )


def load_network_npz(path: PathLike) -> ConnectionMatrix:
    """Load a network previously written by :func:`save_network_npz`."""
    with np.load(path, allow_pickle=False) as data:
        name = str(data["name"]) if "name" in data else "network"
        if "matrix" in data:
            return ConnectionMatrix.from_dense(data["matrix"], name=name)
        if "rows" in data and "cols" in data and "n" in data:
            return ConnectionMatrix.from_edges(
                int(data["n"]), (data["rows"], data["cols"]), name=name
            )
    raise ValueError(
        f"{path!s} is not a saved network (no 'matrix' or 'rows'/'cols'/'n' arrays)"
    )


def save_network_edgelist(network: ConnectionMatrix, path: PathLike) -> None:
    """Write the network as a text edge list: header then one ``i j`` per line."""
    rows, cols = network.connection_arrays()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# network {network.name} n={network.size}\n")
        for i, j in zip(rows.tolist(), cols.tolist()):
            handle.write(f"{i} {j}\n")


def load_network_edgelist(path: PathLike) -> ConnectionMatrix:
    """Load a network written by :func:`save_network_edgelist`."""
    n = None
    name = "network"
    edges = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].split()
                for token in tokens:
                    if token.startswith("n="):
                        n = int(token[2:])
                if len(tokens) >= 2 and tokens[0] == "network":
                    name = tokens[1]
                continue
            i_str, j_str = line.split()
            edges.append((int(i_str), int(j_str)))
    if n is None:
        n = 1 + max((max(i, j) for i, j in edges), default=-1)
    return ConnectionMatrix.from_edges(n, edges, name=name)
