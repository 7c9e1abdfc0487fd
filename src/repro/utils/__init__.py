"""Shared utilities: argument validation, seeded RNG handling, hashing."""

from repro.utils.canonical import canonical, canonical_json, stable_hash
from repro.utils.rng import ensure_rng, spawn_rng, spawn_seeds
from repro.utils.validation import (
    check_binary_matrix,
    check_in_range,
    check_positive,
    check_probability,
    check_square,
)

__all__ = [
    "canonical",
    "canonical_json",
    "check_binary_matrix",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_square",
    "ensure_rng",
    "spawn_rng",
    "spawn_seeds",
    "stable_hash",
]
