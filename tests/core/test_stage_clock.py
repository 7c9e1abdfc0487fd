"""Flow spans are the only stage clock.

Every ``stage_seconds`` entry is the duration of the one span that covers
the stage; the runner's job seconds are the ``runner.job`` span's.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

import repro.core.autoncs as autoncs_module
from repro.core import AutoNCS
from repro.core.autoncs import _relaxed_routing_config
from repro.core.config import AutoNcsConfig, fast_config
from repro.networks import random_sparse_network
from repro.observability import NULL_RECORDER, get_recorder, recording
from repro.physical.placement.placer import place as real_place
from repro.physical.routing.router import RoutingConfig
from repro.physical.routing.router import route as real_route
from repro.runtime import Runner, SweepSpec

#: stage_seconds key -> the span that times it.
STAGE_SPANS = {
    "isc": "flow.cluster",
    "mapping": "flow.map",
    "placement": "flow.place",
    "placement_fallback": "flow.place_fallback",
    "routing": "flow.route",
    "routing_retry": "flow.route_retry",
    "cost": "flow.evaluate",
    "verify": "flow.verify",
}


@pytest.fixture(scope="module")
def network():
    return random_sparse_network(48, 0.08, rng=11, name="clock-net")


@pytest.fixture()
def flow():
    return AutoNCS(fast_config())


def _nan_place(netlist, **kwargs):
    placement = real_place(netlist, **kwargs)
    placement.x[:] = np.nan
    return placement


def _flaky_route():
    calls = {"n": 0}

    def route(netlist, placement, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic congestion blow-up")
        return real_route(netlist, placement, **kwargs)

    return route


def _assert_spans_are_the_clock(recorder, stage_seconds):
    for key, seconds in stage_seconds.items():
        (span,) = recorder.tracer.named(STAGE_SPANS[key])
        assert seconds == span.duration, key


def _run(flow, network):
    return flow.run(network, rng=3, verify=True).stage_seconds


def _run_baseline(flow, network):
    return flow.run_baseline(network, rng=3).stage_seconds


class TestStageSecondsAreSpanDurations:
    def test_verified_run(self, flow, network):
        with recording() as recorder:
            seconds = _run(flow, network)
        assert list(seconds) == ["isc", "mapping", "placement", "routing", "cost", "verify"]
        _assert_spans_are_the_clock(recorder, seconds)

    def test_baseline(self, flow, network):
        with recording() as recorder:
            seconds = _run_baseline(flow, network)
        assert list(seconds) == ["mapping", "placement", "routing", "cost"]
        _assert_spans_are_the_clock(recorder, seconds)

    def test_placement_fallback_has_its_own_span(self, flow, network, monkeypatch):
        monkeypatch.setattr(autoncs_module, "place", _nan_place)
        with recording() as recorder:
            seconds = flow.run(network, rng=3).stage_seconds
        assert {"placement", "placement_fallback"} <= set(seconds)
        _assert_spans_are_the_clock(recorder, seconds)
        (fallback,) = recorder.tracer.named("flow.place_fallback")
        assert fallback.parent == "flow.run"

    def test_routing_retry_has_its_own_span(self, flow, network, monkeypatch):
        monkeypatch.setattr(autoncs_module, "route", _flaky_route())
        with recording() as recorder:
            seconds = flow.run(network, rng=3).stage_seconds
        assert {"routing", "routing_retry"} <= set(seconds)
        _assert_spans_are_the_clock(recorder, seconds)
        (retry,) = recorder.tracer.named("flow.route_retry")
        assert retry.parent == "flow.run"


class TestNullRecorderStillTimes:
    @pytest.mark.parametrize("runner", [_run, _run_baseline])
    def test_same_keys_positive_values(self, flow, network, runner):
        with recording() as recorder:
            traced = runner(flow, network)
        assert get_recorder() is NULL_RECORDER
        untraced = runner(flow, network)
        assert list(untraced) == list(traced)
        assert all(value > 0 for value in untraced.values())
        assert NULL_RECORDER.tracer.spans == []
        assert recorder.tracer.spans

    def test_fallback_keys_positive(self, flow, network, monkeypatch):
        monkeypatch.setattr(autoncs_module, "place", _nan_place)
        monkeypatch.setattr(autoncs_module, "route", _flaky_route())
        seconds = flow.run(network, rng=3).stage_seconds
        assert set(seconds) == {
            "isc", "mapping", "placement", "placement_fallback",
            "routing", "routing_retry", "cost",
        }
        assert all(value > 0 for value in seconds.values())

    def test_nested_null_spans_time_themselves_and_are_dropped(self):
        with NULL_RECORDER.span("outer", ignored=True) as outer:
            with NULL_RECORDER.span("inner") as inner:
                time.sleep(0.001)
            outer.annotate(more=1)
        assert outer is not inner
        assert outer.duration >= inner.duration >= 0.001
        assert NULL_RECORDER.tracer.spans == []


class TestFullCroMappingTime:
    def test_comparison_reports_fullcro_mapping(self, flow, network):
        report = flow.compare(network, rng=5)
        times = report.stage_seconds()
        assert list(times["FullCro"]) == ["mapping", "placement", "routing", "cost"]
        assert times["FullCro"]["mapping"] > 0
        fullcro_block = report.format_table().split("stage seconds — FullCro:")[1]
        assert "mapping" in fullcro_block


class TestRunnerJobSeconds:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_job_seconds_are_the_job_span(self, n_jobs):
        spec = SweepSpec(
            sizes=(24, 32), densities=(0.1,), seed=7, kind="fullcro",
            config=fast_config(),
        )
        with recording() as recorder:
            results = Runner(n_jobs=n_jobs).run_sweep(spec).results
        spans = {span.attributes["label"]: span for span in recorder.tracer.named("runner.job")}
        assert len(spans) == len(results) == 2
        for result in results:
            assert not result.cache_hit
            assert result.seconds == spans[result.label].duration
            assert list(result.stage_seconds) == ["mapping", "placement", "routing", "cost"]


def test_relaxed_routing_config_changes_only_the_relaxed_fields():
    relaxed_fields = {
        "capacity_per_bin", "window_margin_bins", "max_relax_rounds", "max_ripup_iterations",
    }
    base = RoutingConfig(
        bin_um=12.5,
        capacity_per_bin=3,
        congestion_weight=1.5,
        relax_increment=2,
        overflow_penalty=4.0,
        region_margin_bins=2,
        max_grid_bins=40,
        algorithm="negotiated",
        present_weight=0.7,
        present_growth=1.3,
        history_increment=0.2,
        metadata={"origin": "test"},
    )
    relaxed = _relaxed_routing_config(base, AutoNcsConfig())
    changed = {
        item.name
        for item in dataclasses.fields(RoutingConfig)
        if getattr(relaxed, item.name) != getattr(base, item.name)
    }
    assert changed == relaxed_fields
    assert relaxed.capacity_per_bin == 6
