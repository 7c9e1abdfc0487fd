"""ASCII previews of matrices, layouts and congestion maps.

Handy in terminals and doctest-able; the SVG writers in
:mod:`repro.viz.svg` produce the publication-style versions.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.mapping.netlist import CellKind
from repro.networks.connection_matrix import ConnectionMatrix

_SHADES = " .:-=+*#%@"


def ascii_matrix(
    network: Union[ConnectionMatrix, np.ndarray],
    width: int = 64,
) -> str:
    """Downsample a connection matrix to a character raster.

    Each character covers a block of entries; darker characters mean more
    connections in the block.
    """
    if isinstance(network, ConnectionMatrix):
        matrix = network.matrix.astype(float)
    else:
        matrix = np.asarray(network, dtype=float)
    n = matrix.shape[0]
    if n == 0:
        return ""
    width = min(width, n)
    edges = np.linspace(0, n, width + 1).astype(int)
    blocks = np.zeros((width, width))
    for a in range(width):
        for b in range(width):
            sub = matrix[edges[a] : edges[a + 1], edges[b] : edges[b + 1]]
            blocks[a, b] = sub.mean() if sub.size else 0.0
    peak = blocks.max()
    if peak <= 0:
        return "\n".join(" " * width for _ in range(width))
    lines = []
    for a in range(width):
        line = []
        for b in range(width):
            level = blocks[a, b] / peak
            line.append(_SHADES[min(int(level * (len(_SHADES) - 1)), len(_SHADES) - 1)])
        lines.append("".join(line))
    return "\n".join(lines)


def ascii_layout(
    placement,
    kinds: Sequence[int],
    columns: int = 64,
    rows: int = 24,
) -> str:
    """Render cell positions as characters: '#' crossbar, '.' neuron, '+' synapse.

    ``kinds`` holds each cell's :class:`~repro.mapping.netlist.CellKind`
    code, as :attr:`Netlist.kinds <repro.mapping.netlist.Netlist.kinds>` does.
    """
    if len(kinds) != placement.num_cells:
        raise ValueError(
            f"kinds has {len(kinds)} entries for {placement.num_cells} cells"
        )
    if placement.num_cells == 0:
        return ""
    xmin, ymin, xmax, ymax = placement.bounding_box()
    span_x = max(xmax - xmin, 1e-9)
    span_y = max(ymax - ymin, 1e-9)
    canvas = [[" "] * columns for _ in range(rows)]
    symbol = {CellKind.NEURON: ".", CellKind.CROSSBAR: "#", CellKind.SYNAPSE: "+"}
    order = np.argsort(-(placement.widths * placement.heights))
    for i in order:
        c = int((placement.x[i] - xmin) / span_x * (columns - 1))
        r = int((placement.y[i] - ymin) / span_y * (rows - 1))
        canvas[rows - 1 - r][c] = symbol.get(int(kinds[i]), "?")
    return "\n".join("".join(line) for line in canvas)


def ascii_heatmap(grid: np.ndarray, columns: int = 64, rows: int = 24) -> str:
    """Render a 2-D array as a character heat map."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.size == 0:
        return ""
    nx, ny = grid.shape
    peak = grid.max()
    lines = []
    for r in range(rows - 1, -1, -1):
        line = []
        for c in range(columns):
            gx = min(int(c / columns * nx), nx - 1)
            gy = min(int(r / rows * ny), ny - 1)
            level = grid[gx, gy] / peak if peak > 0 else 0.0
            line.append(_SHADES[min(int(level * (len(_SHADES) - 1)), len(_SHADES) - 1)])
        lines.append("".join(line))
    return "\n".join(lines)
