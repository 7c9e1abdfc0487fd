"""Property-based verification: the full flow is clean for random inputs.

The verifier is the oracle; hypothesis drives it with random networks from
every generator in :mod:`repro.networks.generators`, plus LDPC codes and
Hopfield testbenches.  Whatever the topology, seed or size, the complete
AutoNCS flow must produce a design that passes all four independent checks
— and a randomly mutated mapping must always be rejected.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutoNCS
from repro.experiments.testbenches import build_testbench, scaled_testbench
from repro.networks.generators import (
    block_diagonal_network,
    distance_decay_network,
    random_sparse_network,
    scale_free_network,
)
from repro.networks.ldpc import ldpc_network
from repro.verify import verify_flow, verify_mapping


def _random(draw, seed):
    n = draw(st.integers(28, 72))
    density = draw(st.floats(0.04, 0.15))
    return random_sparse_network(n, density, rng=seed)


def _blocks(draw, seed):
    sizes = draw(st.lists(st.integers(8, 24), min_size=2, max_size=4))
    return block_diagonal_network(sizes, rng=seed)


def _distance(draw, seed):
    n = draw(st.integers(30, 80))
    scale = draw(st.floats(3.0, 15.0))
    return distance_decay_network(n, scale=scale, rng=seed)


def _scale_free(draw, seed):
    n = draw(st.integers(30, 80))
    attachment = draw(st.integers(2, 4))
    return scale_free_network(n, attachment, rng=seed)


def _ldpc(draw, seed):
    n_vars = 6 * draw(st.integers(4, 9))
    return ldpc_network(n_vars, column_weight=3, row_weight=6, rng=seed)


BUILDERS = {
    "random": _random,
    "blocks": _blocks,
    "distance-decay": _distance,
    "scale-free": _scale_free,
    "ldpc": _ldpc,
}


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_full_flow_verifies_clean_on_any_generator(data):
    """Every generator family → full flow → all four checks green."""
    kind = data.draw(st.sampled_from(sorted(BUILDERS)))
    seed = data.draw(st.integers(0, 10**6))
    network = BUILDERS[kind](data.draw, seed)
    flow = AutoNCS().run(network, rng=seed)
    report = verify_flow(flow)
    assert report.passed, f"[{kind}]\n{report.format()}"


@settings(max_examples=4, deadline=None)
@given(
    index=st.integers(1, 3),
    dimension=st.sampled_from([48, 64, 80]),
    seed=st.integers(0, 10**6),
)
def test_hopfield_testbench_flow_verifies_clean(index, dimension, seed):
    """Scaled paper testbenches pass all checks including hardware recall."""
    tb = build_testbench(scaled_testbench(index, dimension), rng=seed)
    flow = AutoNCS().run(tb.network, rng=seed)
    report = verify_flow(flow, hopfield=tb.hopfield)
    assert report.passed, report.format()
    assert "max_recall_error" in report.check("functional").stats


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_cell_flip_always_rejected(verified_flow, seed):
    """Any single misplaced crossbar cell is caught by the coverage check."""
    import numpy as np

    mapping = verified_flow.mapping
    rng = np.random.default_rng(seed)
    matrix = mapping.network.matrix
    candidates = []
    for index, instance in enumerate(mapping.instances):
        pairs = [tuple(pair) for pair in instance.connections.tolist()]
        taken = set(pairs)
        for i, j in pairs:
            for j2 in instance.cols.tolist():
                if j2 != j and matrix[i, j2] == 0 and (i, j2) not in taken:
                    candidates.append((index, (i, j), (i, j2)))
    index, old, new = candidates[rng.integers(len(candidates))]
    instance = mapping.instances[index]
    instances = list(mapping.instances)
    instances[index] = dataclasses.replace(
        instance,
        connections=[
            new if pair == old else pair
            for pair in (tuple(pair) for pair in instance.connections.tolist())
        ],
    )
    mutant = dataclasses.replace(mapping, instances=instances)
    report = verify_mapping(mutant, checks=("coverage",))
    assert not report.passed
    messages = [v.message for v in report.violations]
    assert any(str(old) in m for m in messages)
    assert any(str(new) in m for m in messages)
