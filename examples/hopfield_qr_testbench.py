#!/usr/bin/env python
"""The paper's testbench flow: QR patterns → sparse Hopfield → AutoNCS.

Reproduces the Sec. 4.1 testbench construction end to end on testbench 1
(M=15 patterns, N=300 neurons, 94.47 % sparsity):

1. generate random QR-code-like patterns,
2. store them in a Hopfield network (Hebbian rule), prune to the exact
   paper sparsity, and retrain for stability,
3. verify the recognition rate is above the paper's 90 % bar,
4. run ISC and inspect the per-iteration statistics (the Fig. 7 panels),
5. replay recall on the *mapped hardware* with analog non-idealities.

Run:  python examples/hopfield_qr_testbench.py
"""

import numpy as np

from repro.experiments import build_testbench
from repro.hardware.simulation import HybridNcsSimulator, NonIdealityModel
from repro.mapping import autoncs_mapping, fullcro_utilization
from repro.clustering import iterative_spectral_clustering
from repro.networks.patterns import corrupt_pattern


def main() -> None:
    instance = build_testbench(1, rng=42)
    network = instance.network
    print(f"testbench      : {instance.testbench.label}")
    print(f"network        : {network}")
    print(f"target sparsity: {instance.testbench.target_sparsity:.4f} "
          f"(achieved {network.sparsity:.4f})")

    rate = instance.recognition_rate(rng=0)
    print(f"recognition    : {rate:.1%} (paper requires > 90 %)")

    # --- ISC --------------------------------------------------------------
    threshold = fullcro_utilization(network, 64)
    isc = iterative_spectral_clustering(network, utilization_threshold=threshold, rng=0)
    print(f"\nISC stopped after {isc.iterations} iterations "
          f"(threshold u >= {threshold:.4f})")
    for record in isc.records:
        print(f"  iter {record.iteration:2d}: +{record.crossbars_placed:3d} crossbars, "
              f"avg u = {record.average_utilization:.3f}, "
              f"outliers left = {record.outlier_ratio_after:.1%}")
    mapping = autoncs_mapping(isc)
    print(f"final          : {mapping.num_crossbars} crossbars, "
          f"{mapping.num_synapses} discrete synapses, "
          f"sizes {mapping.crossbar_size_histogram()}")

    # --- recall on the mapped analog hardware ------------------------------
    model = NonIdealityModel(
        variation_sigma=0.05,       # memristor programming variation
        stuck_off_probability=0.001,
        ir_drop_coefficient=0.002,  # grows with crossbar size
    )
    simulator = HybridNcsSimulator(mapping, signed_weights=instance.hopfield.weights,
                                   model=model, rng=7)
    rng = np.random.default_rng(3)
    hits = 0
    trials = 0
    for pattern in instance.hopfield.patterns:
        probe = corrupt_pattern(pattern, 0.05, rng=rng)
        recalled = simulator.recall(probe)
        agreement = float(np.mean(recalled == pattern))
        hits += max(agreement, 1 - agreement) >= 0.9
        trials += 1
    print(f"\nhardware recall (with variation + defects + IR-drop): "
          f"{hits}/{trials} patterns recognized")


if __name__ == "__main__":
    main()
