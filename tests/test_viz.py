"""Tests for the dependency-free visualization module."""

import numpy as np
import pytest

from repro.mapping import CellKind
from repro.networks import block_diagonal_network
from repro.physical.layout import Placement
from repro.viz import (
    ascii_heatmap,
    ascii_layout,
    ascii_matrix,
    congestion_to_svg,
    layout_to_svg,
    matrix_to_svg,
    save_svg,
)


@pytest.fixture(scope="module")
def network():
    return block_diagonal_network([10, 8], within_density=0.8,
                                  between_density=0.05, rng=0)


@pytest.fixture(scope="module")
def placement():
    return Placement(
        x=np.array([5.0, 20.0, 35.0]),
        y=np.array([5.0, 20.0, 5.0]),
        widths=np.array([8.0, 4.0, 1.0]),
        heights=np.array([8.0, 4.0, 1.0]),
    )


class TestMatrixSvg:
    def test_valid_svg(self, network):
        svg = matrix_to_svg(network, size_px=120)
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= network.num_connections

    def test_cluster_overlays(self, network):
        svg = matrix_to_svg(network, clusters=[range(10), range(10, 18)])
        assert svg.count('stroke="#d62728"') == 2

    def test_title(self, network):
        svg = matrix_to_svg(network, title="hello")
        assert "hello" in svg

    def test_empty_matrix(self):
        svg = matrix_to_svg(np.zeros((0, 0)))
        assert "</svg>" in svg


class TestLayoutSvg:
    def test_colors_by_kind(self, placement):
        svg = layout_to_svg(placement, [CellKind.CROSSBAR, CellKind.NEURON, CellKind.SYNAPSE])
        assert "#1f77b4" in svg  # crossbar blue
        assert "#2ca02c" in svg  # neuron green
        assert "#d62728" in svg  # synapse red

    def test_kind_length_checked(self, placement):
        with pytest.raises(ValueError):
            layout_to_svg(placement, [CellKind.NEURON])


class TestCongestionSvg:
    def test_renders(self):
        svg = congestion_to_svg(np.arange(12.0).reshape(3, 4), size_px=60)
        assert svg.count("<rect") >= 12

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            congestion_to_svg(np.zeros(5))

    def test_all_zero_map(self):
        svg = congestion_to_svg(np.zeros((2, 2)))
        assert "</svg>" in svg


class TestSaveSvg:
    def test_roundtrip(self, tmp_path, network):
        path = tmp_path / "m.svg"
        save_svg(matrix_to_svg(network), path)
        assert path.read_text().startswith("<?xml")


class TestAscii:
    def test_matrix_shades_structure(self, network):
        art = ascii_matrix(network, width=18)
        lines = art.split("\n")
        assert len(lines) == 18
        # the dense blocks appear as non-space characters
        assert any(ch != " " for ch in art)

    def test_matrix_empty(self):
        assert ascii_matrix(np.zeros((0, 0))) == ""

    def test_layout_symbols(self, placement):
        art = ascii_layout(placement, [CellKind.CROSSBAR, CellKind.NEURON, CellKind.SYNAPSE])
        assert "#" in art and "." in art and "+" in art

    def test_layout_validates(self, placement):
        with pytest.raises(ValueError):
            ascii_layout(placement, [CellKind.NEURON])

    def test_heatmap(self):
        art = ascii_heatmap(np.eye(4), columns=8, rows=4)
        assert len(art.split("\n")) == 4

    def test_heatmap_empty(self):
        assert ascii_heatmap(np.zeros((0, 0))) == ""
