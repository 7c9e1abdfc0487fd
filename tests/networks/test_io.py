"""Tests for network save/load round trips."""

import numpy as np
import pytest

from repro.networks import random_sparse_network
from repro.networks.connection_matrix import ConnectionMatrix
from repro.networks.io import (
    load_network_edgelist,
    load_network_npz,
    save_network_edgelist,
    save_network_npz,
)


@pytest.fixture()
def net():
    return random_sparse_network(25, 0.15, rng=0, name="roundtrip")


class TestNpz:
    def test_roundtrip(self, net, tmp_path):
        path = tmp_path / "net.npz"
        save_network_npz(net, path)
        loaded = load_network_npz(path)
        assert loaded == net
        assert loaded.name == "roundtrip"

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(ValueError, match="matrix"):
            load_network_npz(path)


class TestEdgelist:
    def test_roundtrip(self, net, tmp_path):
        path = tmp_path / "net.edges"
        save_network_edgelist(net, path)
        loaded = load_network_edgelist(path)
        assert loaded == net
        assert loaded.name == "roundtrip"

    def test_empty_network(self, tmp_path):
        empty = ConnectionMatrix.from_dense(np.zeros((5, 5)), name="empty")
        path = tmp_path / "empty.edges"
        save_network_edgelist(empty, path)
        loaded = load_network_edgelist(path)
        assert loaded.size == 5
        assert loaded.num_connections == 0

    def test_infers_size_without_header(self, tmp_path):
        path = tmp_path / "raw.edges"
        path.write_text("0 1\n2 0\n")
        loaded = load_network_edgelist(path)
        assert loaded.size == 3
        assert loaded.num_connections == 2
