#!/usr/bin/env python3
"""Serving benchmark for ``repro serve``.

Usage (from the repository root)::

    python3 servebench/run.py --workload search-hot --seed 1 --seconds 30 --trace 0

Generates the workload's corpus and op stream from ``--seed``, launches
``repro serve`` from ``src/`` the way a user would, replays the op stream
from one closed-loop client, checks the answers against an in-process
oracle and prints one JSON result as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced replay with ``--trace 1``.  The full report (per-class latencies,
every launch's set-up time, checks, environment, calibration) is written
to ``servebench/results/``.  See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / "_work"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("search-hot", "ingest-wal", "batch-shard")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import runner
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = runner.Bench(WORKLOADS[args.workload], args.seed, args.seconds, SRC, work)
    try:
        report = runner.measure(bench, layers.traced_run if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = {
            name: {"value": report["layers"][name], "unit": unit}
            for name, (unit, _) in layers.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": report["metrics"][name], "unit": unit}
            for name, unit in runner.END_TO_END.items()
        }
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_summary(report, result_path)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def print_summary(report, result_path: Path) -> None:
    """Human-readable lines before the JSON result."""
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['attempted']} timed ops in {report['timed_wall_s']:.2f} s "
          f"({report['metrics']['throughput_ops']:.1f}/s), "
          f"error_frac {report['error_frac']:g}, checked {report['checks']['checked_ops']}")
    for kind, summary in report["classes"].items():
        cells = ", ".join(
            f"{kind}_{key}_ms={value:.2f}" for key, value in summary.items() if key != "count"
        )
        print(f"  {kind}: n={summary['count']} {cells}")
    launches = ", ".join(f"{value:.3f}" for value in report["launches_s"])
    print(f"  setup launches (s): {launches}")
    calibration = report["calibration_ms"]
    print(f"  calibration loop (ms): before {calibration['before']:.1f}, "
          f"after {calibration['after']:.1f}; environment {report['environment']}")
    print(f"  report: {result_path}")


if __name__ == "__main__":
    sys.exit(main())
