"""Compare a fresh BENCH_engine.json against the committed baseline.

Usage::

    python benchmarks/check_regression.py BASELINE.json FRESH.json
    python benchmarks/check_regression.py BASELINE.json FRESH.json --factor 4

Fails (exit 1) when the fresh report regresses against the baseline:

* a benchmark file that was ``ok`` in the baseline now fails/times out,
* a benchmark file disappeared entirely,
* a benchmark the baseline holds is no longer measured by a fresh run
  of its file,
* a benchmark's mean time grew by more than ``--factor`` (default 4 —
  CI runners are noisy, this gate is for order-of-magnitude breakage,
  the committed trend line is for everything subtler) *and* by more
  than ``--floor`` seconds in absolute terms.

New files and new benchmarks are reported but never fail the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: benchmark files the gate requires in every fresh report even when
#: the committed baseline predates them — a new acceptance-critical
#: bench cannot silently drop out of the smoke run.
REQUIRED_FILES = (
    "bench_e12_symbolic_reachability.py",
    "bench_e13_ctl_check.py",
    "bench_e14_farm.py",
    "bench_e15_partitioned_relation.py",
    "bench_e16_serve.py",
    "bench_e17_lint.py",
    "bench_e18_obs.py",
)


def _index_files(report: dict) -> dict[str, dict]:
    return {record["file"]: record for record in report.get("files", [])}


def _index_benchmarks(record: dict) -> dict[str, dict]:
    return {
        bench["name"]: bench
        for bench in record.get("benchmarks", [])
        if bench.get("name")
    }


def compare(baseline: dict, fresh: dict, factor: float, floor: float) -> list[str]:
    """The list of regression messages (empty means the gate passes)."""
    problems: list[str] = []
    baseline_files = _index_files(baseline)
    fresh_files = _index_files(fresh)

    for name, base_record in sorted(baseline_files.items()):
        fresh_record = fresh_files.get(name)
        if fresh_record is None:
            problems.append(f"{name}: present in baseline but not re-run")
            continue
        if base_record["status"] == "ok" and fresh_record["status"] != "ok":
            problems.append(f"{name}: was ok, now {fresh_record['status']}")
            continue
        base_benches = _index_benchmarks(base_record)
        fresh_benches = _index_benchmarks(fresh_record)
        for bench_name, base_bench in sorted(base_benches.items()):
            fresh_bench = fresh_benches.get(bench_name)
            if fresh_bench is None:
                problems.append(f"{name}: {bench_name} is no longer measured")
                continue
            base_mean = base_bench.get("mean_s")
            fresh_mean = fresh_bench.get("mean_s")
            if not base_mean or not fresh_mean:
                continue
            grew = fresh_mean > base_mean * factor
            if grew and fresh_mean - base_mean > floor:
                problems.append(
                    f"{bench_name}: mean {base_mean:.4f}s -> "
                    f"{fresh_mean:.4f}s ({fresh_mean / base_mean:.1f}x)"
                )

    for name in REQUIRED_FILES:
        fresh_record = fresh_files.get(name)
        baseline_status = baseline_files.get(name, {}).get("status")
        if fresh_record is None:
            problems.append(f"{name}: required benchmark missing from the run")
        elif fresh_record["status"] != "ok" and baseline_status != "ok":
            # the ok->non-ok transition is already flagged by the main
            # loop; this catches a required bench that was never ok (or
            # whose baseline record is itself broken)
            problems.append(f"{name}: required benchmark {fresh_record['status']}")

    for name in sorted(set(fresh_files) - set(baseline_files)):
        print(f"note: new benchmark file {name} (no baseline yet)")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument(
        "--factor",
        type=float,
        default=4.0,
        help="allowed mean-time growth factor (default 4)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=0.05,
        help="ignore regressions below this many seconds (default 0.05)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    problems = compare(baseline, fresh, args.factor, args.floor)
    if problems:
        print("bench regression gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"bench regression gate passed ({len(_index_files(fresh))} file(s) checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
