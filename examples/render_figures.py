#!/usr/bin/env python
"""Render the paper-figure artefacts as SVG files (no plotting libs).

Produces, for a small testbench-style network:

* ``figures/matrix_original.svg``  — the scattered connection matrix
  (Fig. 3(a) style);
* ``figures/matrix_clustered.svg`` — the same matrix permuted by the ISC
  clusters with red cluster overlays (Fig. 3(b)/Fig. 6 style);
* ``figures/layout_autoncs.svg`` / ``figures/layout_fullcro.svg`` — the
  placed designs (Fig. 10(a)/(c) style);
* ``figures/congestion_*.svg``     — the routed congestion heat maps
  (Fig. 10(b)/(d) style).

Run:  python examples/render_figures.py
"""

import pathlib

from repro.core import AutoNCS
from repro.core.config import fast_config
from repro.experiments.testbenches import Testbench, build_testbench
from repro.viz import congestion_to_svg, layout_to_svg, matrix_to_svg, save_svg

OUTPUT = pathlib.Path("figures")


def main() -> None:
    OUTPUT.mkdir(exist_ok=True)
    # a miniature testbench keeps this example fast (~1 min)
    descriptor = Testbench(index=0, num_patterns=8, dimension=180, target_sparsity=0.92)
    instance = build_testbench(descriptor, rng=11)
    network = instance.network
    print(f"network: {network}")

    flow = AutoNCS(fast_config())
    result = flow.run(network, rng=11)
    baseline = flow.run_baseline(network, rng=11)

    save_svg(
        matrix_to_svg(network, title="original connection matrix"),
        OUTPUT / "matrix_original.svg",
    )
    # Neurons can appear in several crossbars (one per ISC iteration);
    # keep each neuron at its first cluster for the matrix permutation.
    clusters = [crossbar.rows for crossbar in result.isc.crossbars]
    order = []
    seen = set()
    boxes = []
    for cluster in clusters:
        fresh = [m for m in cluster if m not in seen]
        if fresh:
            boxes.append(range(len(order), len(order) + len(fresh)))
            order.extend(fresh)
            seen.update(fresh)
    order += [i for i in range(network.size) if i not in seen]
    permuted = network.permuted(order)
    save_svg(
        matrix_to_svg(permuted, clusters=boxes, title="after ISC (clusters boxed)"),
        OUTPUT / "matrix_clustered.svg",
    )

    for name, design in (("autoncs", result.design), ("fullcro", baseline)):
        save_svg(
            layout_to_svg(design.placement, design.mapping.netlist.kinds, title=f"{name} layout"),
            OUTPUT / f"layout_{name}.svg",
        )
        save_svg(
            congestion_to_svg(design.routing.congestion_map(), title=f"{name} congestion"),
            OUTPUT / f"congestion_{name}.svg",
        )
    print(f"wrote 6 SVG files to {OUTPUT}/")


if __name__ == "__main__":
    main()
