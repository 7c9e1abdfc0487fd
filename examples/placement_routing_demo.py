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

from repro.clustering import iterative_spectral_clustering
from repro.mapping import autoncs_mapping, fullcro_utilization
from repro.networks import block_diagonal_network
from repro.physical import evaluate_cost, place, route
from repro.physical.placement.placer import PlacementConfig
from repro.viz import ascii_heatmap, ascii_layout


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

    print("\nplacement ('#' crossbar, '.' neuron, '+' synapse):")
    print(ascii_layout(placement, netlist.kinds))

    routing = route(netlist, placement)
    print(f"\nrouting: {len(routing.paths)} wires, "
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
