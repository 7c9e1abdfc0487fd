"""Placement-engine ablation (extension): Algorithm 4 vs simulated annealing.

Compares the customized analytical placer against a classic annealer on
the testbench-1 AutoNCS netlist: final HPWL, area, and runtime.
"""

import time

from benchmarks.conftest import bench_seed, write_result
from repro.mapping import autoncs_mapping
from repro.physical.placement.annealing import AnnealingConfig, anneal_place
from repro.physical.placement.placer import place


def test_placer_comparison(benchmark, cache):
    isc = cache.isc(1)
    mapping = autoncs_mapping(isc)
    netlist = mapping.netlist
    sources, targets = netlist.sources, netlist.targets

    def compute():
        t0 = time.perf_counter()
        analytic = place(netlist, rng=bench_seed())
        analytic_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        annealed = anneal_place(
            netlist,
            config=AnnealingConfig(moves_per_temperature=300, temperatures=25),
            rng=bench_seed(),
        )
        annealed_s = time.perf_counter() - t0
        return analytic, analytic_s, annealed, annealed_s

    analytic, analytic_s, annealed, annealed_s = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )

    analytic_hpwl = analytic.hpwl(sources, targets)
    annealed_hpwl = annealed.hpwl(sources, targets)
    lines = [
        f"netlist: {netlist.num_cells} cells, {netlist.num_wires} wires",
        f"analytical (Alg. 4): HPWL {analytic_hpwl:,.0f} um, "
        f"area {analytic.area:,.0f} um2, {analytic_s:.1f} s",
        f"simulated annealing: HPWL {annealed_hpwl:,.0f} um, "
        f"area {annealed.area:,.0f} um2, {annealed_s:.1f} s",
        f"analytic/annealing HPWL ratio: {analytic_hpwl / annealed_hpwl:.2f}",
    ]
    write_result("placer_comparison", "\n".join(lines))

    # both engines produce legal layouts
    assert analytic.overlap_ratio() == 0.0
    assert annealed.overlap_ratio() == 0.0
    # the customized analytical placer must not lose to the generic annealer
    assert analytic_hpwl <= annealed_hpwl * 1.1
