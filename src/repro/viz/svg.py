"""Minimal SVG writers for connection matrices, layouts and congestion maps.

Pure string generation — no third-party dependency.  The coordinate system
follows the paper's figures: matrix plots put entry (0, 0) in the top-left
corner; layout plots put the origin at the bottom-left with y pointing up.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.mapping.netlist import CellKind
from repro.networks.connection_matrix import ConnectionMatrix

PathLike = Union[str, "os.PathLike[str]"]

_KIND_COLORS = {
    CellKind.CROSSBAR: "#1f77b4",
    CellKind.NEURON: "#2ca02c",
    CellKind.SYNAPSE: "#d62728",
}


def _header(width: float, height: float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>\n'
    )


def matrix_to_svg(
    network: Union[ConnectionMatrix, np.ndarray],
    size_px: int = 480,
    clusters: Optional[Iterable[Sequence[int]]] = None,
    title: str = "",
) -> str:
    """Render a connection matrix as an SVG scatter (the Fig. 3–6 style).

    Each connection becomes a dot; optional ``clusters`` draw red squares
    over the (sorted-member) diagonal blocks like the paper's cluster
    overlays.
    """
    if isinstance(network, ConnectionMatrix):
        matrix = network.matrix
    else:
        matrix = np.asarray(network)
    n = matrix.shape[0]
    if n == 0:
        return _header(size_px, size_px) + "</svg>\n"
    scale = size_px / n
    parts = [_header(size_px, size_px + (18 if title else 0))]
    if title:
        parts.append(
            f'<text x="4" y="{size_px + 14}" font-size="12" '
            f'font-family="monospace">{title}</text>\n'
        )
    rows, cols = np.nonzero(matrix)
    dot = max(scale * 0.8, 0.75)
    for i, j in zip(rows.tolist(), cols.tolist()):
        parts.append(
            f'<rect x="{j * scale:.2f}" y="{i * scale:.2f}" '
            f'width="{dot:.2f}" height="{dot:.2f}" fill="#303030"/>\n'
        )
    if clusters is not None:
        for cluster in clusters:
            members = sorted(int(m) for m in cluster)
            if not members:
                continue
            lo, hi = members[0], members[-1]
            side = (hi - lo + 1) * scale
            parts.append(
                f'<rect x="{lo * scale:.2f}" y="{lo * scale:.2f}" '
                f'width="{side:.2f}" height="{side:.2f}" fill="none" '
                f'stroke="#d62728" stroke-width="1.5"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def layout_to_svg(
    placement,
    kinds: Sequence[int],
    size_px: int = 480,
    title: str = "",
) -> str:
    """Render a placed design (the Fig. 10(a)/(c) style).

    ``kinds`` holds each cell's :class:`~repro.mapping.netlist.CellKind`
    code, as :attr:`Netlist.kinds <repro.mapping.netlist.Netlist.kinds>`
    does.  Crossbars draw blue, neurons green, discrete synapses red; cell
    rectangles are to scale.
    """
    if len(kinds) != placement.num_cells:
        raise ValueError(
            f"kinds has {len(kinds)} entries for {placement.num_cells} cells"
        )
    xmin, ymin, xmax, ymax = placement.bounding_box()
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    scale = size_px / span
    parts = [_header(size_px, size_px + (18 if title else 0))]
    if title:
        parts.append(
            f'<text x="4" y="{size_px + 14}" font-size="12" '
            f'font-family="monospace">{title}</text>\n'
        )
    order = np.argsort(-(placement.widths * placement.heights))
    for i in order:
        w = placement.widths[i] * scale
        h = placement.heights[i] * scale
        x = (placement.x[i] - placement.widths[i] / 2 - xmin) * scale
        # SVG y grows downward; flip so the layout matches the paper's view.
        y = size_px - (placement.y[i] + placement.heights[i] / 2 - ymin) * scale
        color = _KIND_COLORS.get(int(kinds[i]), "#888888")
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{max(w, 0.5):.2f}" '
            f'height="{max(h, 0.5):.2f}" fill="{color}" fill-opacity="0.75" '
            f'stroke="#202020" stroke-width="0.3"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def congestion_to_svg(
    congestion: np.ndarray,
    size_px: int = 480,
    title: str = "",
) -> str:
    """Render a congestion map as a heat map (the Fig. 10(b)/(d) style)."""
    congestion = np.asarray(congestion, dtype=float)
    if congestion.ndim != 2:
        raise ValueError(f"congestion must be 2-D, got shape {congestion.shape}")
    nx, ny = congestion.shape
    peak = float(congestion.max()) if congestion.size else 0.0
    cell_w = size_px / max(nx, 1)
    cell_h = size_px / max(ny, 1)
    parts = [_header(size_px, size_px + (18 if title else 0))]
    if title:
        parts.append(
            f'<text x="4" y="{size_px + 14}" font-size="12" '
            f'font-family="monospace">{title} (peak {peak:.0f} wires/bin)</text>\n'
        )
    for bx in range(nx):
        for by in range(ny):
            value = congestion[bx, by] / peak if peak > 0 else 0.0
            # blue (cold) -> red (hot)
            red = int(255 * value)
            blue = int(255 * (1.0 - value))
            y = size_px - (by + 1) * cell_h
            parts.append(
                f'<rect x="{bx * cell_w:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="rgb({red},60,{blue})" '
                f'fill-opacity="{0.15 + 0.85 * value:.2f}"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def save_svg(svg: str, path: PathLike) -> None:
    """Write an SVG string to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)
