"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program under test is imported from
``src/`` of that checkout; the run stops with a non-zero exit code and
no result when it is missing. Each workload runs in fresh interpreters
(``worker.py``) with ``PYTHONHASHSEED`` pinned, so exact counts repeat
between two runs of one seed. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# both import only the standard library at module level
from layers import LAYER_METRICS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

#: interpreter starts per side of cli.import_s
IMPORT_SAMPLES = 3

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, a crashed worker)."""


def environment(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_checked(command: list, env: dict, timeout: float = 120):
    completed = subprocess.run(command, env=env, capture_output=True,
                               text=True, timeout=timeout)
    if completed.returncode != 0:
        raise BenchError(f"{' '.join(command[:4])} ... exited "
                         f"{completed.returncode}: {completed.stderr[-2000:]}")
    return completed


def timed(command: list, env: dict) -> float:
    started = time.perf_counter()
    run_checked(command, env)
    return time.perf_counter() - started


def start_worker(args, workdir: str, env: dict):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    started = time.perf_counter()
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               text=True)
    line = process.stdout.readline()
    ready = time.perf_counter() - started
    if not line.startswith('{"ready"'):
        process.kill()
        process.wait()
        raise BenchError(f"worker failed during set-up: {line!r}")
    return process, ready


def finish_worker(process) -> dict:
    try:
        output, _ = process.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchError("worker did not finish in time") from None
    if process.returncode != 0:
        raise BenchError(f"worker exited {process.returncode}")
    lines = [line for line in output.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else {}


def import_cost(env: dict) -> float:
    """``cli.import_s``: a fresh ``import repro.cli`` minus a bare start."""
    bare = [timed([sys.executable, "-c", "pass"], env)
            for _ in range(IMPORT_SAMPLES)]
    cli = [timed([sys.executable, "-c", "import repro.cli"], env)
           for _ in range(IMPORT_SAMPLES)]
    return statistics.median(cli) - statistics.median(bare)


def measure(args, root: str, workdir: str) -> dict:
    env = environment(root)
    # compile the program's byte code once, untimed, so the first run in
    # a checkout measures the same set-up as every later one
    run_checked([sys.executable, "-c",
                 "import repro.cli, repro.serve, repro.lint, repro.farm"], env)
    process, ready = start_worker(args, workdir, env)
    result = finish_worker(process)
    attempted, failures = result["attempted"], list(result["failures"])
    if args.trace:
        metrics = dict(result["layers"])
        metrics["cli.import_s"] = import_cost(env)
        metrics["cli.cold_check_s"] = statistics.median(result["cold_checks"])
        attempted += len(result["cold_checks"])
        failures += ["a cold repro check answered wrong"] * \
            result["cold_wrong"]
        if not result["digests_match"]:
            failures.append("traced rounds gave other outputs than "
                            "untraced ones")
        failures += result["op_violations"]
        units = LAYER_METRICS
    else:
        metrics = dict(result["e2e"])
        metrics["setup_s"] = statistics.median(result["setups"] + [ready])
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        units = E2E_UNITS
    for problem in failures[:10]:
        print(f"failure: {problem}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro in the current directory; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        document = measure(args, root, workdir)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
