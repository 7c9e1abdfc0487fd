"""Connectivity-aware initial placement seed.

The AutoNCS physical design is *customized*: the flow already knows which
neurons feed which crossbars, so the placer does not have to rediscover
that structure from scratch.  The seed places:

* **crossbars** on a regular grid ordered by a spectral embedding of the
  crossbar-affinity graph (two crossbars are affine when they share
  neurons), so related arrays start adjacent;
* **neurons** at the centroid of the crossbars they connect to;
* **discrete synapses** at the midpoint of their two endpoint neurons.

The Algorithm 4 penalty loop then refines this seed, and the
structure-preserving grid-snap legalizer makes it disjoint.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.optimize

from repro.clustering.spectral import dense_embedding
from repro.mapping.netlist import CellKind, Netlist
from repro.utils.rng import RngLike, ensure_rng

#: Seed-region inflation over the total virtual cell area: crossbar slots
#: tile a square of this many times that area.
SEED_FILL_TARGET = 1.2


def connectivity_seed(
    netlist: Netlist,
    virtual_widths: np.ndarray,
    virtual_heights: np.ndarray,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Seed coordinates exploiting the known cluster structure.

    Returns center coordinates ``(x, y)``; heavily overlapped (neurons sit
    on their crossbars' centroids) — a structure-preserving legalizer must
    follow.
    """
    rng = ensure_rng(rng)
    n = netlist.num_cells
    if n == 0:
        return np.zeros(0), np.zeros(0)
    sources, targets, weights = netlist.sources, netlist.targets, netlist.weights
    kinds = netlist.kinds
    crossbars = np.flatnonzero(kinds == CellKind.CROSSBAR)
    total_area = float(np.sum(virtual_widths * virtual_heights))
    side = float(np.sqrt(max(total_area, 1e-9) * SEED_FILL_TARGET))
    x = np.zeros(n)
    y = np.zeros(n)

    # --- crossbars: spectral ordering of the shared-neuron affinity ------
    k = len(crossbars)
    if k:
        adjacency = np.zeros((n, n))
        adjacency[sources, targets] += weights
        adjacency[targets, sources] += weights
        cells = np.arange(n)
        affinity = adjacency[np.ix_(crossbars, cells)] @ adjacency[np.ix_(cells, crossbars)]
        np.fill_diagonal(affinity, 0.0)
        if k > 3 and affinity.any():
            # MSC's dense solver (with its subset-driver retry): the second
            # and third generalized eigenvectors give each crossbar a 2-D spot.
            vectors, _ = dense_embedding(affinity, 3)
            v1, v2 = vectors[:, 1], vectors[:, 2]
        else:
            v1 = np.arange(k, dtype=float)
            v2 = np.zeros(k)
        # Snap spectral coordinates onto grid slots by an optimal 2-D
        # assignment (Hungarian): preserves the embedding's structure far
        # better than a 1-D sort.
        columns = max(1, int(np.ceil(np.sqrt(k))))
        pitch = side / columns
        rows = (k + columns - 1) // columns
        slots = np.array(
            [
                ((col + 0.5) * pitch, (row + 0.5) * pitch)
                for row in range(rows)
                for col in range(columns)
            ]
        )

        def rescale(v: np.ndarray) -> np.ndarray:
            v = v - v.min()
            span = v.max()
            return (v / span if span > 0 else v) * side

        e1 = rescale(v1)
        e2 = rescale(v2)
        cost = (e1[:, None] - slots[None, :, 0]) ** 2 + (
            e2[:, None] - slots[None, :, 1]
        ) ** 2
        assigned_rows, assigned_slots = scipy.optimize.linear_sum_assignment(cost)
        x[crossbars[assigned_rows]] = slots[assigned_slots, 0]
        y[crossbars[assigned_rows]] = slots[assigned_slots, 1]

    # --- neurons at the centroid of their crossbars, then synapses at the
    # midpoint of their two neurons; anchors in wire order -------------------
    incident = netlist.incident_wires()
    jitter = max(0.01 * side, 0.5)
    for kind in (CellKind.NEURON, CellKind.SYNAPSE):
        for i in np.flatnonzero(kinds == kind):
            wires = incident[i]
            anchors = sources[wires] + targets[wires] - i  # each wire's other end
            if kind == CellKind.NEURON:
                anchors = anchors[kinds[anchors] == CellKind.CROSSBAR]
            if anchors.size:
                x[i] = float(np.mean(x[anchors])) + rng.uniform(-jitter, jitter)
                y[i] = float(np.mean(y[anchors])) + rng.uniform(-jitter, jitter)
            else:
                x[i] = rng.uniform(0.0, side)
                y[i] = rng.uniform(0.0, side)
    return x, y
