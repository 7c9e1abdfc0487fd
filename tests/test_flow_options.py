"""Tests for :class:`repro.FlowOptions` and ``repro.load_network``."""

from __future__ import annotations

import pytest

import repro
from repro import FlowOptions
from repro.core.config import AutoNcsConfig, fast_config
from repro.networks import random_sparse_network
from repro.networks.io import save_network_edgelist, save_network_npz


@pytest.fixture(scope="module")
def network():
    return random_sparse_network(40, 0.1, rng=7, name="opts-net")


class TestFlowOptions:
    def test_defaults(self):
        options = FlowOptions()
        assert options.config is None
        assert options.seed is None
        assert options.n_jobs == 1
        assert isinstance(options.resolved_config(), AutoNcsConfig)

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            FlowOptions(n_jobs=0)

    def test_rejects_nan_or_fractional_n_jobs(self):
        # NaN passed the old ``n_jobs < 1`` test.
        for value in (float("nan"), 2.5):
            with pytest.raises(ValueError, match="n_jobs must be a whole number"):
                FlowOptions(n_jobs=value)
        assert type(FlowOptions(n_jobs=2.0).n_jobs) is int

    def test_checks_normalized_to_tuple(self):
        options = FlowOptions(checks=["coverage", "hardware"])
        assert options.checks == ("coverage", "hardware")


class TestOptionsParameter:
    def test_unknown_kwarg_rejected(self, network):
        for function in (repro.map_network, repro.compare, repro.verify):
            with pytest.raises(TypeError, match="unexpected keyword"):
                function(network, nonsense=1)

    def test_legacy_kwargs_rejected(self, network):
        # The pre-2.0 per-call keywords are rejected like any unknown one.
        for function in (repro.map_network, repro.compare, repro.verify):
            for kwargs in ({"seed": 3}, {"config": fast_config()}):
                with pytest.raises(TypeError, match="unexpected keyword"):
                    function(network, **kwargs)

    def test_verify_options_checks(self, network):
        report = repro.verify(
            network,
            options=FlowOptions(
                config=fast_config(), seed=3, checks=("coverage", "hardware")
            ),
        )
        assert report.passed
        assert {c.name for c in report.checks if c.status != "skip"} <= {
            "coverage",
            "hardware",
        }


class TestLoadNetwork:
    def test_npz_round_trip(self, network, tmp_path):
        path = tmp_path / "net.npz"
        save_network_npz(network, path)
        loaded = repro.load_network(path)
        assert loaded.digest() == network.digest()

    def test_npz_round_trip_sparse_backend(self, tmp_path):
        sparse_net = random_sparse_network(40, 0.1, rng=7)
        path = tmp_path / "sparse.npz"
        save_network_npz(sparse_net, path)
        loaded = repro.load_network(path)
        assert loaded.digest() == sparse_net.digest()

    def test_edgelist_round_trip(self, network, tmp_path):
        path = tmp_path / "net.edges"
        save_network_edgelist(network, path)
        loaded = repro.load_network(path)
        assert loaded.digest() == network.digest()

    def test_name_override(self, network, tmp_path):
        path = tmp_path / "net.npz"
        save_network_npz(network, path)
        assert repro.load_network(path, name="renamed").name == "renamed"
