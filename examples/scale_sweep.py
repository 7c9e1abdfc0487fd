#!/usr/bin/env python
"""Scalability sweep: reductions vs network size (paper Sec. 4.3 claim).

"Table 1 also shows that wirelength and area reductions increase with the
scale of NCS, which implies the scalability and adaptability of our
AutoNCS to large-scale NCS."  This example sweeps synthetic networks of
growing size through the reduced-effort flow and prints the trend.

Run:  python examples/scale_sweep.py
"""

import time

import numpy as np

import repro
from repro.core.config import fast_config
from repro.networks import block_diagonal_network


def scattered_blocks(n_target: int, rng_seed: int):
    """A network of ~n_target neurons in dense groups, scattered indices."""
    sizes = []
    remaining = n_target
    rng = np.random.default_rng(rng_seed)
    while remaining > 0:
        size = int(rng.integers(20, 36))
        sizes.append(min(size, remaining))
        remaining -= size
    blocks = block_diagonal_network(
        sizes, within_density=0.45, between_density=0.01, rng=rng_seed
    )
    order = np.random.default_rng(rng_seed + 1).permutation(blocks.size)
    return blocks.permuted(order)


def main() -> None:
    config = fast_config()
    print(f"{'N':>6}{'WL reduc.':>12}{'area reduc.':>13}{'delay reduc.':>14}{'time':>8}")
    for n in (96, 160, 224, 288):
        network = scattered_blocks(n, rng_seed=n)
        start = time.perf_counter()
        report = repro.compare(network, options=repro.FlowOptions(config=config, seed=7))
        elapsed = time.perf_counter() - start
        print(
            f"{network.size:>6}"
            f"{report.wirelength_reduction:>11.1f}%"
            f"{report.area_reduction:>12.1f}%"
            f"{report.delay_reduction:>13.1f}%"
            f"{elapsed:>7.1f}s"
        )
    print(
        "\nThe paper's trend: the bigger the network relative to the 64x64 "
        "crossbar, the more the brute-force baseline wastes — reductions "
        "grow with N."
    )


if __name__ == "__main__":
    main()
