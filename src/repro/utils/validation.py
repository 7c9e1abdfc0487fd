"""Argument validation helpers.

Every public entry point of the library validates its inputs through these
helpers so that user errors surface as clear ``ValueError``/``TypeError``
messages at the API boundary instead of as numpy shape errors deep inside an
algorithm.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def check_positive(name: str, value: float, *, allow_zero: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive (or nonnegative) scalar."""
    if not np.isscalar(value) or isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a numeric scalar, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_whole_number(name: str, value, minimum: int = 1) -> int:
    """Return ``value`` as an ``int``; raise ``ValueError`` naming ``name``
    unless it is a whole number ``>= minimum``.

    Tested as ``not ...`` so that NaN fails too.
    """
    if not (value >= minimum and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {value}")
    return int(value)


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in the closed interval [0, 1]."""
    if not np.isscalar(value) or isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a numeric scalar, got {value!r}")
    if not (0.0 <= float(value) <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def check_in_range(
    name: str,
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
    *,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> None:
    """Raise ``ValueError`` unless ``low <(=) value <(=) high``."""
    value = float(value)
    if low is not None:
        if low_inclusive and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if not low_inclusive and value <= low:
            raise ValueError(f"{name} must be > {low}, got {value}")
    if high is not None:
        if high_inclusive and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value}")
        if not high_inclusive and value >= high:
            raise ValueError(f"{name} must be < {high}, got {value}")


def check_square(name: str, matrix: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``matrix`` is a 2-D square array."""
    if not isinstance(matrix, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(matrix).__name__}")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square 2-D matrix, got shape {matrix.shape}")


def check_binary_matrix(name: str, matrix: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of ``matrix`` is 0 or 1."""
    if not isinstance(matrix, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(matrix).__name__}")
    values = np.unique(matrix)
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError(f"{name} must contain only 0/1 entries, found values {values[:8]}")
