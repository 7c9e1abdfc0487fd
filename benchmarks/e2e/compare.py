#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric and workload by workload.

Each set is a directory of result files written by ``run.py --save DIR``.
For every end-to-end metric declared in ``BENCHMARK.json`` and every
workload present in both sets, the verdict is one of:

* ``better``: the new side wins at least 9 of every 10 pairs of runs
  (ties count for neither) and the medians differ by more than the base
  side's own inter-quartile spread;
* ``unresolved``: either side's inter-quartile spread, as a share of the
  base median, exceeds the metric's bound, and not every new run beats
  every base run;
* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``same``: none of the above;
* ``invalid``: some run of the workload, on either side, was not correct
  or had a failed flow.  Its metrics then cover fewer networks than they
  should, so no verdict on them holds.

Runs pair up in seed order.  The exit code is 1 when any pair reads
``worse``, ``unresolved`` or ``invalid``.

    python3 benchmarks/e2e/compare.py runs/base runs/new
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Share of pairs the new side must win for a gain.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    """``better``, ``same``, ``worse`` or ``unresolved`` (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0 means worse
    b_q1, b_median, b_q3 = quartiles(base)
    n_q1, n_median, n_q3 = quartiles(new)
    scale = abs(b_median) or 1.0
    change = sign * (n_median - b_median) / scale
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and -change > (b_q3 - b_q1) / scale:
        return "better"
    widest = max(b_q3 - b_q1, n_q3 - n_q1) / scale
    every_run_better = all(sign * (n - b) < 0 for n in new for b in base)
    if widest > bound and not every_run_better:
        return "unresolved"
    if change > bound:
        return "worse"
    return "same"


def load(directory: Path) -> Tuple[Dict[str, Dict[str, List[float]]], Set[str]]:
    """From the untraced result files: ``{workload: {metric: values in seed
    order}}``, and the workloads with a run that was not correct or had a
    failed flow."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        runs[record["workload"]].append((record["seed"], path.name, record["result"]))
    samples: Dict[str, Dict[str, List[float]]] = {}
    failing = set()
    for workload, entries in runs.items():
        entries.sort(key=lambda entry: entry[:2])
        metrics = defaultdict(list)
        for _, _, result in entries:
            if not result["correct"] or result["failed"]:
                failing.add(workload)
            for name, entry in result["metrics"].items():
                metrics[name].append(float(entry["value"]))
        samples[workload] = dict(metrics)
    return samples, failing


def end_to_end(benchmark: Path) -> Dict[str, dict]:
    """The declared end-to-end metrics, by name."""
    declared = json.loads(benchmark.read_text())
    return {metric["name"]: metric for metric in declared["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="directory of base results")
    parser.add_argument("new", type=Path, help="directory of new results")
    parser.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with the metric bounds")
    args = parser.parse_args(argv)
    metrics = end_to_end(args.benchmark)
    (base, base_failing), (new, new_failing) = load(args.base), load(args.new)
    if not base or not new:
        parser.error("each directory must hold untraced results")
    failing = 0
    print(f"{'workload':<14}{'metric':<16}{'runs':>9}{'base median':>14}{'new median':>14}"
          f"{'change':>9}{'bound':>7}  verdict")
    for workload in sorted(set(base) & set(new)):
        for name, metric in metrics.items():
            b, n = base[workload][name], new[workload][name]
            if workload in base_failing | new_failing:
                result = "invalid"
            else:
                result = verdict(b, n, metric["bound"], metric["better"])
            failing += result in ("worse", "unresolved", "invalid")
            b_median, n_median = quartiles(b)[1], quartiles(n)[1]
            change = (n_median - b_median) / abs(b_median) if b_median else 0.0
            print(f"{workload:<14}{name:<16}{len(b):>4}/{len(n):<4}{b_median:>14.6g}"
                  f"{n_median:>14.6g}{change:>+9.2%}{metric['bound']:>7.0%}  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
