#!/usr/bin/env python
"""Quickstart: run the complete AutoNCS flow on a small sparse network.

This walks the whole pipeline on a 120-neuron network in a few seconds:

1. generate a sparse network,
2. cluster its connections with ISC (MSC + GCP + partial selection),
3. map clusters to library crossbars and outliers to discrete synapses,
4. place & route the netlist, evaluate wirelength / area / delay,
5. compare against the brute-force FullCro baseline.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.core.config import fast_config
from repro.networks import block_diagonal_network


def main() -> None:
    # A 160-neuron network made of dense functional groups whose neurons
    # are scattered over the index space (hardware neuron numbering is
    # arbitrary).  Blind 64x64 tiling straddles the groups and wastes most
    # memristors; AutoNCS re-discovers them by spectral clustering.
    blocks = block_diagonal_network(
        [36, 34, 32, 30, 28], within_density=0.4, between_density=0.01, rng=42
    )
    order = np.random.default_rng(42).permutation(blocks.size)
    network = blocks.permuted(order).copy(name="quickstart")
    print(f"input network : {network}")

    config = fast_config()

    # --- the AutoNCS flow (the stable facade: repro.map_network) ----------
    result = repro.map_network(network, options=repro.FlowOptions(config=config, seed=42))
    print(f"\nISC finished in {result.isc.iterations} iterations")
    print(f"  crossbars placed   : {result.mapping.num_crossbars}")
    print(f"  crossbar sizes     : {result.mapping.crossbar_size_histogram()}")
    print(f"  discrete synapses  : {result.mapping.num_synapses}")
    print(f"  outlier ratio      : {result.isc.outlier_ratio:.1%}")
    print(f"  avg utilization    : {result.mapping.average_utilization:.3f}")

    # --- the physical design ----------------------------------------------
    cost = result.design.cost
    print("\nAutoNCS physical design")
    print(f"  total wirelength   : {cost.wirelength_um:,.1f} um")
    print(f"  placement area     : {cost.area_um2:,.1f} um^2")
    print(f"  average wire delay : {cost.average_delay_ns:.2f} ns")

    # --- versus the baseline ----------------------------------------------
    baseline = repro.AutoNCS(config).run_baseline(network, rng=42)
    print("\nFullCro baseline (only 64x64 crossbars)")
    print(f"  total wirelength   : {baseline.cost.wirelength_um:,.1f} um")
    print(f"  placement area     : {baseline.cost.area_um2:,.1f} um^2")
    print(f"  average wire delay : {baseline.cost.average_delay_ns:.2f} ns")

    wl = (1 - cost.wirelength_um / baseline.cost.wirelength_um) * 100
    ar = (1 - cost.area_um2 / baseline.cost.area_um2) * 100
    dl = (1 - cost.average_delay_ns / baseline.cost.average_delay_ns) * 100
    print(f"\nAutoNCS reductions: wirelength {wl:.1f}%, area {ar:.1f}%, delay {dl:.1f}%")


if __name__ == "__main__":
    main()
