"""Snapshot + contract tests for the stable public API (``repro.api``).

The facade is the supported surface: ``repro.map_network``,
``repro.compare``, ``repro.verify``.  These tests pin its names,
keyword-only signatures, return types, the absence of the old
deep-import aliases, and the facade/submodule coexistence trick
(``repro.verify`` is simultaneously a callable and an importable
package).
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

import repro
import repro.api
from repro import FlowOptions
from repro.core import AutoNcsResult, ComparisonReport
from repro.networks import random_sparse_network
from repro.verify.report import VerificationReport


@pytest.fixture(scope="module")
def network():
    return random_sparse_network(48, 0.08, rng=11, name="api-net")


# ---------------------------------------------------------------- snapshot
#: The supported top-level surface.  Additions are fine; removals or
#: renames are an API break and must bump the major version.
PUBLIC_API = {
    # facade
    "map_network", "compare", "verify", "load_network", "FlowOptions",
    # flow objects
    "AutoNCS", "AutoNcsConfig", "AutoNcsResult", "ComparisonReport",
    "fast_config",
    # observability
    "MetricsSnapshot", "Recorder", "get_recorder", "recording",
    "set_recorder", "write_chrome_trace", "write_metrics_text",
    "__version__",
}


def test_public_api_snapshot():
    assert PUBLIC_API <= set(repro.__all__) | {"__version__"}
    for name in PUBLIC_API:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_api_module_all():
    assert set(repro.api.__all__) == {
        "FlowOptions",
        "compare",
        "load_network",
        "map_network",
        "verify",
    }


def test_version_is_semver():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


#: Every settable field of the flow's configuration objects.  A field here
#: is one more configuration that tests and benchmarks must cover, so a new
#: one should be needed by two callers outside the tests.
CONFIG_FIELDS = {
    "repro.core.config.AutoNcsConfig": (
        "crossbar_sizes", "utilization_threshold", "selection_quantile",
        "max_isc_iterations", "clustering", "tier_size", "technology",
        "placement", "routing", "cost_weights",
    ),
    "repro.physical.placement.placer.PlacementConfig": (
        "max_lambda_stages", "cg_iterations_per_stage",
    ),
    "repro.physical.routing.router.RoutingConfig": (
        "max_relax_rounds", "algorithm",
    ),
    "repro.physical.placement.annealing.AnnealingConfig": (
        "moves_per_temperature", "temperatures",
    ),
    "repro.hardware.technology.Technology": (
        "feature_size_nm", "memristor_pitch_um", "crossbar_margin_um",
        "neuron_area_um2", "synapse_area_um2", "crossbar_delay_base_ns",
        "crossbar_delay_quadratic_ns", "synapse_delay_ns",
        "wire_resistance_ohm_per_um", "wire_capacitance_ff_per_um",
        "routing_space_factor", "routing_bin_um", "routing_capacity_per_bin",
    ),
}


@pytest.mark.parametrize("path", sorted(CONFIG_FIELDS))
def test_config_fields_snapshot(path):
    module, name = path.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == CONFIG_FIELDS[path]


# ------------------------------------------------------- keyword-only args
@pytest.mark.parametrize("name", ["map_network", "compare", "verify"])
def test_facade_config_args_are_keyword_only(name):
    fn = getattr(repro.api, name)
    params = inspect.signature(fn).parameters
    positional = [
        p for p in params.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    assert len(positional) == 1, f"{name} must take exactly one positional arg"
    for p in params.values():
        if p.name != positional[0].name:
            assert p.kind == p.KEYWORD_ONLY, f"{name}({p.name}) must be keyword-only"
            assert p.default is not p.empty, f"{name}({p.name}) must have a default"


def test_top_level_names_are_the_api_functions():
    assert repro.map_network is repro.api.map_network
    assert repro.compare is repro.api.compare
    assert repro.verify is repro.api.verify


# ---------------------------------------------------------------- behaviour
def test_map_network_returns_result(network):
    from repro.core.config import fast_config

    result = repro.map_network(network, options=FlowOptions(config=fast_config(), seed=3))
    assert isinstance(result, AutoNcsResult)
    assert result.design.cost.wirelength_um > 0


def test_verify_facade_on_network(network):
    from repro.core.config import fast_config

    report = repro.verify(
        network,
        options=FlowOptions(config=fast_config(), seed=3, checks=["coverage", "hardware"]),
    )
    assert isinstance(report, VerificationReport)
    assert report.passed


def test_verify_facade_rejects_unknown_target():
    with pytest.raises(TypeError):
        repro.verify(object())


def test_compare_facade_serial_matches_class(network):
    from repro.core import AutoNCS
    from repro.core.config import fast_config

    via_facade = repro.compare(network, options=FlowOptions(config=fast_config(), seed=5))
    via_class = AutoNCS(fast_config()).compare(network, rng=5)
    assert isinstance(via_facade, ComparisonReport)
    assert via_facade.rows() == via_class.rows()


# ----------------------------------------------------- facade vs submodule
def test_verify_submodule_still_importable():
    import repro.verify as verify_pkg  # the package, via sys.modules

    # The attribute on the repro package is the facade function...
    assert callable(repro.verify)
    assert repro.verify is repro.api.verify
    # ...but `import repro.verify` and `from repro.verify import X` still
    # reach the subpackage (sys.modules wins for import statements).
    from repro.verify import verify_flow, verify_mapping  # noqa: F401

    assert hasattr(verify_pkg, "verify_flow") or callable(verify_pkg)


# ------------------------------------------------------ no legacy surfaces
@pytest.mark.parametrize("name", ["map_network", "compare", "verify"])
def test_core_has_no_facade_alias(name):
    import repro.core

    assert not hasattr(repro.core, name)
    assert name not in repro.core.__all__


# -------------------------------------------------- result-object surface
def test_result_objects_have_uniform_surface(network):
    from repro.core.config import fast_config

    options = FlowOptions(config=fast_config(), seed=3, checks=["coverage", "hardware"])
    result = repro.map_network(network, options=options)
    report = repro.compare(network, options=options)
    verification = repro.verify(result, options=options)
    for obj in (result, report, verification):
        data = obj.to_dict()
        assert isinstance(data, dict) and data
        table = obj.format_table()
        assert isinstance(table, str) and table


def test_mapping_result_surface(network):
    from repro.core.config import fast_config

    result = repro.map_network(network, options=FlowOptions(config=fast_config(), seed=3))
    data = result.mapping.to_dict()
    assert data["netlist_cells"] > 0
    assert result.mapping.format_table().startswith("mapping ")
