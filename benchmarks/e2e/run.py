#!/usr/bin/env python3
"""End-to-end AutoNCS benchmark: time to a verified design, plus its QoR.

Run from the repository root; the script puts the checkout's ``src/`` on
the path itself::

    python3 benchmarks/e2e/run.py --seed 42                    # every workload
    python3 benchmarks/e2e/run.py --workload sf-250 --seed 7 --seconds 20
    python3 benchmarks/e2e/run.py --workload sf-250 --trace 1 --trace-dir traces

With ``--workload`` one workload is measured in this process, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Without it,
each workload runs in a fresh subprocess, one after the other.  The exit
code is 0 only when every flow produced a verified design.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[2] / "src"

#: BLAS threads, unless the caller sets them.  The thread count changes
#: eigensolver results and with them the clustering and every QoR metric
#: (see the README), so without a fixed count the designs would depend on
#: the machine's core count.
BLAS_THREADS = "1"


def pin_environment() -> None:
    """Set the BLAS thread count and the maze-search kernel; must run
    before numpy and ``repro`` are imported.

    The kernel is the pure-Python reference whether or not Numba is
    installed, so every install times the same router and the traced run
    can count ``maze_route`` calls (the compiled kernel bypasses them).
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, BLAS_THREADS)
    os.environ["REPRO_ROUTING_KERNEL"] = "python"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=42, help="input seed (default 42)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement length per workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-dir", type=Path,
                        help="write <workload>.trace.json (Chrome trace) and "
                             "<workload>.layers.json here; implies --trace 1")
    parser.add_argument("--save", type=Path,
                        help="also write each result as JSON into this directory, "
                             "for compare.py")
    args = parser.parse_args(argv)
    if args.trace_dir is not None:
        args.trace = 1
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def save(directory: Path, name: str, seed: int, trace: int, threads: str, result: dict) -> Path:
    """Write one result as ``<name>.seed<seed>.trace<trace>.<n>.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    index = 0
    while (path := directory / f"{name}.seed{seed}.trace{trace}.{index}.json").exists():
        index += 1
    record = {"workload": name, "seed": seed, "trace": trace, "threads": threads,
              "result": result}
    path.write_text(json.dumps(record) + "\n")
    return path


def run_all(args, names) -> int:
    """Each workload in its own fresh subprocess, one after the other."""
    results, status = {}, 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace_dir is not None:
            command += ["--trace-dir", str(args.trace_dir)]
        if args.save is not None:
            command += ["--save", str(args.save)]
        child = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        status = status or child.returncode
        last = child.stdout.strip().splitlines()[-1:]
        try:
            results[name] = json.loads(last[0])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0}
            status = status or 1
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: no AutoNCS sources at {SOURCES}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    pin_environment()
    import measure
    import workloads

    if args.workload is None:
        return run_all(args, [w.name for w in workloads.WORKLOADS])
    try:
        workload = workloads.workload(args.workload)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    result, lines = measure.run_workload(
        workload, args.seed, args.seconds, args.trace, workloads.warm_up, measure.import_seconds(),
        trace_dir=args.trace_dir,
    )
    print("\n".join(lines))
    if args.save is not None:
        save(args.save, workload.name, args.seed, args.trace, measure.threads(), result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
