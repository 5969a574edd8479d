"""Run-to-run spread of the benchmark, the way a gate judges it.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... \\
        [--seconds S] [--trace 0|1]

Runs ``run.py`` once per seed (one after another, from the current
directory) and prints, per metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, plus every run's value. Pass one seed several
times to check that exact counts repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]

    runs = []
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return 1
        document = json.loads(completed.stdout.splitlines()[-1])
        runs.append(document)
        print(f"seed {seed}: correct={document['correct']} "
              f"attempted={document['attempted']} "
              f"failed={document['failed']}", file=sys.stderr)

    report = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        middle = statistics.median(values)
        entry = {"median": middle, "values": values}
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / middle if middle else None)
        report[name] = entry
    json.dump({"workload": args.workload, "seeds": args.seeds,
               "seconds": args.seconds, "trace": args.trace,
               "correct": all(run["correct"] for run in runs),
               "metrics": report}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
