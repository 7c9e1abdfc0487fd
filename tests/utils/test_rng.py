"""Unit tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rng


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).random(5)
        b = ensure_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_seed(self):
        assert isinstance(ensure_rng(np.int64(7)), np.random.Generator)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnRng:
    def test_count(self):
        children = spawn_rng(0, 4)
        assert len(children) == 4

    def test_children_independent(self):
        children = spawn_rng(0, 2)
        a = children[0].random(5)
        b = children[1].random(5)
        assert not np.array_equal(a, b)

    def test_deterministic_from_seed(self):
        a = [g.random() for g in spawn_rng(9, 3)]
        b = [g.random() for g in spawn_rng(9, 3)]
        assert a == b
