"""Analytical placement (paper Algorithm 4).

``min WL(x, y) + λ·D(x, y)`` — weighted-average wirelength, sigmoid-based
pairwise density, λ-doubling penalty loop, conjugate-gradient inner solver,
grid-snap legalization and compaction.
"""

from repro.physical.placement.annealing import AnnealingConfig, anneal_place
from repro.physical.placement.density import density_value_and_grad, sigmoid_overlap
from repro.physical.placement.initial import initial_placement
from repro.physical.placement.legalize import compact, grid_snap
from repro.physical.placement.objective import PlacementObjective
from repro.physical.placement.optimizer import conjugate_gradient
from repro.physical.placement.placer import PlacementConfig, place
from repro.physical.placement.seed import connectivity_seed
from repro.physical.placement.wirelength import (
    hpwl,
    wa_wirelength,
    wa_wirelength_and_grad,
)

__all__ = [
    "AnnealingConfig",
    "PlacementConfig",
    "PlacementObjective",
    "anneal_place",
    "compact",
    "conjugate_gradient",
    "connectivity_seed",
    "density_value_and_grad",
    "grid_snap",
    "hpwl",
    "initial_placement",
    "place",
    "sigmoid_overlap",
    "wa_wirelength",
    "wa_wirelength_and_grad",
]
