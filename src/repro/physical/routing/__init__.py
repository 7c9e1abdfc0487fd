"""Global routing: grid graph [18] + maze routing [16] + virtual capacity [17].

Two selectable algorithms (``RoutingConfig.algorithm``): the paper's
ordered route with capacity relaxation, and PathFinder-style negotiated
congestion (:mod:`repro.physical.routing.negotiated`).  Both run the
same windowed A* maze search (:mod:`repro.physical.routing.maze`).
"""

from repro.physical.routing.grid import RoutingGrid
from repro.physical.routing.maze import MazeWorkspace, maze_route
from repro.physical.routing.negotiated import negotiate_routes
from repro.physical.routing.router import (
    ROUTING_ALGORITHMS,
    RoutingConfig,
    RoutingResult,
    route,
)

__all__ = [
    "MazeWorkspace",
    "ROUTING_ALGORITHMS",
    "RoutingConfig",
    "RoutingGrid",
    "RoutingResult",
    "maze_route",
    "negotiate_routes",
    "route",
]
