#!/usr/bin/env python
"""A close look at the customized physical design flow (paper Sec. 3.5).

Builds a small hybrid design, then walks Algorithm 4 step by step:

* the λ-doubling penalty schedule (wirelength vs density trade-off),
* legalization,
* maze routing with virtual capacity and the congestion map,
* the eq. (3) cost breakdown.

Renders the placement and the congestion map as ASCII art so no plotting
library is needed.

Run:  python examples/placement_routing_demo.py
"""

import numpy as np

from repro.clustering import iterative_spectral_clustering
from repro.mapping import autoncs_mapping, fullcro_utilization
from repro.networks import block_diagonal_network
from repro.physical import evaluate_cost, place, route
from repro.physical.placement.placer import PlacementConfig


def ascii_layout(placement, kinds, columns: int = 64, rows: int = 24) -> str:
    """Render cells as characters on a coarse character grid."""
    xmin, ymin, xmax, ymax = placement.bounding_box()
    span_x = max(xmax - xmin, 1e-9)
    span_y = max(ymax - ymin, 1e-9)
    canvas = [[" "] * columns for _ in range(rows)]
    symbol = {"neuron": ".", "crossbar": "#", "synapse": "+"}
    order = np.argsort([-w * h for w, h in zip(placement.widths, placement.heights)])
    for i in order:
        c = int((placement.x[i] - xmin) / span_x * (columns - 1))
        r = int((placement.y[i] - ymin) / span_y * (rows - 1))
        canvas[rows - 1 - r][c] = symbol[kinds[i]]
    return "\n".join("".join(line) for line in canvas)


def ascii_heatmap(grid: np.ndarray, columns: int = 64, rows: int = 24) -> str:
    """Render a congestion map with density characters."""
    shades = " .:-=+*#%@"
    nx, ny = grid.shape
    peak = grid.max() if grid.size else 1.0
    canvas = []
    for r in range(rows - 1, -1, -1):
        line = []
        for c in range(columns):
            gx = min(int(c / columns * nx), nx - 1)
            gy = min(int(r / rows * ny), ny - 1)
            value = grid[gx, gy] / peak if peak else 0.0
            line.append(shades[min(int(value * (len(shades) - 1)), len(shades) - 1)])
        canvas.append("".join(line))
    return "\n".join(canvas)


def main() -> None:
    network = block_diagonal_network([40, 35, 30, 25], within_density=0.5,
                                     between_density=0.02, rng=3)
    threshold = fullcro_utilization(network, 64)
    isc = iterative_spectral_clustering(network, utilization_threshold=threshold, rng=3)
    mapping = autoncs_mapping(isc)
    netlist = mapping.netlist
    print(f"netlist: {netlist.num_cells} cells ({mapping.num_crossbars} crossbars, "
          f"{mapping.num_synapses} synapses), {netlist.num_wires} wires")

    config = PlacementConfig(max_lambda_stages=8, cg_iterations_per_stage=30)
    placement = place(netlist, config=config, rng=3)
    print("\npenalty schedule (Algorithm 4):")
    for stage in placement.metadata["stages"]:
        print(f"  stage {stage['stage']}: lambda={stage['lambda']:.3g}  "
              f"objective={stage['objective']:.1f}  "
              f"overlap={stage['overlap_ratio']:.2%}")
    print("legalization: grid snap + compaction "
          f"(winning snapshot: {placement.metadata['chosen_snapshot']})")
    print(f"weighted HPWL seed / legalized / compacted: "
          f"{placement.metadata['hpwl_seed']:,.0f} / "
          f"{placement.metadata['hpwl_after_legalization']:,.0f} / "
          f"{placement.metadata['hpwl_after_compaction']:,.0f} um")

    kinds = [cell.kind.value for cell in netlist.cells]
    print("\nplacement ('#' crossbar, '.' neuron, '+' synapse):")
    print(ascii_layout(placement, kinds))

    routing = route(netlist, placement)
    print(f"\nrouting: {len(routing.wires)} wires, "
          f"{routing.relax_rounds} capacity-relax rounds, "
          f"{routing.overflow_wires} overflowed wires")
    print("congestion map (darker = more wires):")
    print(ascii_heatmap(routing.congestion_map()))

    cost = evaluate_cost(netlist, placement, routing)
    print(f"\ncost (eq. 3, alpha=beta=delta=1):")
    print(f"  L = {cost.wirelength_um:,.1f} um")
    print(f"  A = {cost.area_um2:,.1f} um^2")
    print(f"  T = {cost.average_delay_ns:.3f} ns")
    print(f"  total = {cost.total:,.1f}")


if __name__ == "__main__":
    main()
