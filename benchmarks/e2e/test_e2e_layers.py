"""The layer interposition table and its clock."""

import time

import layers
import measure
import pytest
import repro
import workloads
from repro import FlowOptions
from repro.networks import scale_free_network
from repro.observability import Recorder, recording


def _current(targets=layers.TARGETS):
    return [getattr(module, attribute) for module, attribute, _, _ in layers.resolve(targets)]


def test_every_target_resolves_to_a_distinct_global():
    resolved = layers.resolve()
    assert len(resolved) == len(layers.TARGETS)
    assert len({(module.__name__, attribute) for module, attribute, _, _ in resolved}) == len(
        resolved
    )


@pytest.mark.parametrize(
    "target",
    [("repro.clustering.gcp", "no_such_kmeans", "clustering.kmeans"),
     ("repro.no_such_module", "kmeans", "clustering.kmeans")],
)
def test_a_renamed_target_fails_loudly(target):
    with pytest.raises(LookupError, match="no_such"):
        layers.resolve((target,))


def test_wrappers_are_installed_only_inside_the_block():
    originals = _current()
    with layers.interposed(layers.LayerClock()):
        inside = _current()
    assert all(a is not b for a, b in zip(inside, originals))
    assert all(getattr(w, "__wrapped__", None) is o for w, o in zip(inside, originals))
    assert all(a is b for a, b in zip(_current(), originals))


def test_an_untraced_run_installs_nothing(tiny, no_warm_up):
    originals = _current()
    untouched = []

    def flow(case):
        untouched.append(all(a is b for a, b in zip(_current(), originals)))
        return tiny.flow(case)

    workload = workloads.Workload("tiny", tiny.generate, flow)
    result, _ = measure.run_workload(workload, 5, 0.01, 0, no_warm_up, 0.0)
    assert result["correct"] and untouched == [True, True]


def test_originals_come_back_when_the_block_raises():
    originals = _current()
    with pytest.raises(RuntimeError, match="boom"):
        with layers.interposed(layers.LayerClock()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_current(), originals))


def test_self_time_subtracts_wrapped_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    clock = layers.LayerClock(timer=lambda: next(ticks))
    with clock.timing("outer"):          # 0 .. 10
        with clock.timing("inner"):      # 1 .. 3
            pass
        with clock.timing("outer"):      # 4 .. 5, nested in itself
            pass
    assert clock.inclusive == {"inner": 2.0, "outer": 10.0}
    assert clock.self_time == {"inner": 2.0, "outer": 8.0}
    assert clock.calls == {"outer": 2, "inner": 1}
    assert clock.attributed() == 10.0


def test_traced_flow_is_attributed_and_maze_calls_match_the_program_counter():
    network = scale_free_network(48, 2, rng=3)
    recorder, clock = Recorder(), layers.LayerClock()
    with recording(recorder), layers.interposed(clock):
        start = time.perf_counter()
        result = repro.map_network(network, options=FlowOptions(seed=3))
        repro.verify(result)
        elapsed = time.perf_counter() - start
    counters = recorder.snapshot().counters
    assert clock.calls["routing.maze"] > 0
    assert clock.calls["routing.maze"] == counters["routing.maze_searches"]
    assert clock.calls["clustering.kmeans"] > 0 and clock.calls["verify.coverage"] == 1
    assert clock.attributed() == pytest.approx(elapsed, rel=0.05)
