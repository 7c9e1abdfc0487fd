"""Tests for the synthetic network generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import (
    ConnectionMatrix,
    block_diagonal_network,
    distance_decay_network,
    generators,
    random_sparse_network,
    scale_free_network,
)


class TestRandomSparse:
    def test_density_approximate(self):
        net = random_sparse_network(200, 0.1, rng=0)
        assert 0.05 < net.density < 0.2

    def test_zero_diagonal(self):
        net = random_sparse_network(50, 0.5, rng=0)
        assert np.all(np.diag(net.matrix) == 0)

    def test_symmetric_by_default(self):
        assert random_sparse_network(40, 0.2, rng=1).is_symmetric()

    def test_asymmetric_option(self):
        net = random_sparse_network(60, 0.3, symmetric=False, rng=1)
        assert not net.is_symmetric()

    def test_reproducible(self):
        assert random_sparse_network(30, 0.2, rng=5) == random_sparse_network(30, 0.2, rng=5)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            random_sparse_network(10, 1.5)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_sparse_network(0, 0.5)


class TestBlockDiagonal:
    def test_size_is_sum(self):
        net = block_diagonal_network([10, 20, 30], rng=0)
        assert net.size == 60

    def test_blocks_denser_than_background(self):
        net = block_diagonal_network([25, 25], within_density=0.8,
                                     between_density=0.02, rng=0)
        block = net.submatrix(range(25))
        off = net.submatrix(range(25), range(25, 50))
        assert block.mean() > 5 * off.mean()

    def test_symmetric(self):
        assert block_diagonal_network([10, 15], rng=3).is_symmetric()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            block_diagonal_network([])

    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError):
            block_diagonal_network([10, 0])


class TestDistanceDecay:
    def test_local_denser_than_distant(self):
        net = distance_decay_network(100, scale=5.0, rng=0)
        m = net.matrix
        near = np.mean([m[i, i + 1] for i in range(99)])
        far = np.mean([m[i, (i + 50) % 100] for i in range(100)])
        assert near > far

    def test_symmetric(self):
        assert distance_decay_network(40, rng=1).is_symmetric()

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            distance_decay_network(20, scale=0)


class TestScaleFree:
    def test_size(self):
        assert scale_free_network(50, rng=0).size == 50

    def test_hub_exists(self):
        net = scale_free_network(100, attachment=2, rng=0)
        degrees = net.matrix.sum(axis=1)
        assert degrees.max() > 3 * degrees.mean()

    def test_symmetric(self):
        assert scale_free_network(30, rng=2).is_symmetric()

    def test_rejects_attachment_too_large(self):
        with pytest.raises(ValueError):
            scale_free_network(5, attachment=5)

    def test_reproducible(self):
        assert scale_free_network(30, rng=7) == scale_free_network(30, rng=7)


def _dense_draw(n, density, symmetric, rng):
    """The deleted dense branch of ``random_sparse_network``, verbatim."""
    w = (rng.random((n, n)) < density).astype(np.uint8)
    np.fill_diagonal(w, 0)
    if symmetric:
        w = np.maximum(w, w.T)
    return ConnectionMatrix.from_dense(w, name="random")


@pytest.mark.parametrize("chunk_rows", [1, 7, None])
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 60),
    density=st.floats(0.0, 1.0),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_sparse_matches_dense_draw(chunk_rows, n, density, symmetric, seed):
    """The row-chunked sampler draws the dense branch's topology and stream."""
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        if chunk_rows is not None:
            patch.setattr(generators, "_CHUNK_ROWS", chunk_rows)
        got = random_sparse_network(n, density, symmetric=symmetric, rng=rng)
    reference_rng = np.random.default_rng(seed)
    want = _dense_draw(n, density, symmetric, reference_rng)
    assert got.digest() == want.digest()
    assert rng.random() == reference_rng.random()
