"""Assertions on a mapping's pair arrays, shared by the equivalence suites."""

from __future__ import annotations

import numpy as np


def assert_same_crossbars(got, want) -> None:
    """Two crossbar lists agree instance by instance: size, rows, cols and
    connections, each array in the same order and of ``int64`` dtype."""
    assert len(got) == len(want)
    for index, (a, b) in enumerate(zip(got, want)):
        assert a.size == b.size, f"crossbar {index}"
        for field in ("rows", "cols", "connections"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype == np.int64, f"crossbar {index} {field}"
            np.testing.assert_array_equal(x, y, err_msg=f"crossbar {index} {field}")


def assert_same_pairs(got, want) -> None:
    """Two ``(k, 2)`` ``int64`` pair arrays hold the same pairs in the same order."""
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
