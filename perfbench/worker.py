"""One workload in one fresh interpreter (started by ``run.py``).

    python perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1
                               --workdir DIR [--setup-only]

Prints ``{"ready": true}`` once set-up is done (the parent times fresh
interpreter to that line as one ``setup_s`` sample), then runs rounds of
the workload until ``--seconds`` of rounds have passed and prints one
JSON result line. Between rounds, spread evenly over the run, it times
the other set-up samples (fresh ``--setup-only`` workers) or, with
``--trace 1``, the cold ``repro check`` processes: the host's speed
drifts over tens of seconds, so these samples then average over the same
stretch of time as the rounds. With ``--trace 1`` every round runs twice
on the same inputs, through the decomposed per-layer path with spans off
and then on; the per-layer figures come from the traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

import batch_explicit
import check_symbolic
import gen
import serve_mixed
from layers import (LAYER_METRICS, NoRecorder, Recorder, median, percentile,
                    probe_layers)

WORKLOADS = {module.Workload.name: module.Workload
             for module in (check_symbolic, batch_explicit, serve_mixed)}

#: fresh-interpreter set-ups per run, this worker's own included;
#: setup_s is their median
SETUP_SAMPLES = 5
#: cold ``repro check`` processes per traced run; cli.cold_check_s is
#: their median
COLD_CHECKS = 9
#: the fixed model of cli.cold_check_s
COLD_CHECK_MODEL = gen.chain(10, 1)


class Probes:
    """The set-up and cold-check samples taken between rounds."""

    def __init__(self, argv: list[str], workdir: str, cold: bool):
        self.argv = argv
        self.model = os.path.join(workdir, "cold-check.sigpml")
        with open(self.model, "w", encoding="utf-8") as handle:
            handle.write(COLD_CHECK_MODEL["doc"]["text"])
        self.pending = (["cold"] * COLD_CHECKS if cold
                        else ["setup"] * (SETUP_SAMPLES - 1))
        self.total = len(self.pending)
        self.setups: list[float] = []
        self.colds: list[float] = []
        self.cold_wrong = 0

    def due(self, fraction: float) -> bool:
        done = self.total - len(self.pending)
        return bool(self.pending) and fraction >= (done + 1) / (self.total + 1)

    def run_next(self) -> None:
        kind = self.pending.pop(0)
        started = time.perf_counter()
        if kind == "cold":
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "check", self.model,
                 "AG !deadlock"], capture_output=True, text=True, timeout=120)
            self.colds.append(time.perf_counter() - started)
            if completed.returncode != 0 or "HOLDS" not in completed.stdout:
                self.cold_wrong += 1
            return
        process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *self.argv,
             "--setup-only"], stdout=subprocess.PIPE, text=True)
        line = process.stdout.readline()
        self.setups.append(time.perf_counter() - started)
        process.communicate(timeout=120)
        if process.returncode != 0 or not line.startswith('{"ready"'):
            raise RuntimeError("a set-up sample failed")


def emit(document: dict) -> None:
    print(json.dumps(document), flush=True)


def timed_phase(workload, seconds: float, trace: bool, probes):
    """Rounds until *seconds* of rounds have passed, with the *probes*
    spread between them: ``(plain, traced, recorder)`` where *plain* are
    the untraced rounds."""
    recorder = Recorder() if trace else None
    plain, traced = [], []
    started = time.perf_counter()
    probing = 0.0  # time spent in probes, not counted as round time
    round_index = 0
    while True:
        gc.collect()
        plain.append(workload.run_round(round_index, NoRecorder(),
                                        decomposed=trace))
        if trace:
            gc.collect()
            traced.append(workload.run_round(round_index, recorder,
                                             decomposed=True))
        round_index += 1
        elapsed = time.perf_counter() - started - probing
        while probes.due(elapsed / seconds):
            probe_start = time.perf_counter()
            probes.run_next()
            probing += time.perf_counter() - probe_start
        if elapsed >= seconds and not probes.pending:
            return plain, traced, recorder


def peak_rss_mb(workload) -> float:
    """Peak resident memory of this process, or of the workload's server
    child when larger, in MiB (the probes' processes do not count)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               workload.child_peak_kb) / 1024


def run(workload, seconds: float, trace: bool, probes) -> dict:
    workload.warmup()
    plain, traced, recorder = timed_phase(workload, seconds, trace, probes)
    rounds = plain + traced
    failures = [problem for r in rounds for problem in r["failures"]]
    failures += workload.finish()
    attempted = sum(r["attempted"] for r in rounds)
    result = {"attempted": attempted, "failures": failures}
    if trace:
        figures = probe_layers(workload.probe_records(), workload.workdir)
        figures.update(workload.native_layers(recorder))
        figures["trace.overhead_frac"] = (
            median(r["wall_s"] for r in traced) /
            median(r["wall_s"] for r in plain) - 1)
        result["layers"] = {name: figures[name] for name in LAYER_METRICS
                            if name in figures}
        result["op_violations"] = recorder.op_violations()
        result["digests_match"] = all(
            a["digest"] == b["digest"] for a, b in zip(plain, traced))
        result["cold_checks"] = probes.colds
        result["cold_wrong"] = probes.cold_wrong
    else:
        # every round runs the same ops (one per key), so the round figures
        # are taken at the run's fastest round and the latencies at each
        # op's fastest run: other tenants of a shared host only ever slow
        # work down, by up to 2x from one tenth of a second to the next,
        # and the fastest run of an op is the one they slowed least
        best: dict = {}
        for r in plain:
            for key, latency in zip(r["keys"], r["latencies"]):
                best[key] = min(latency, best.get(key, latency))
        result["e2e"] = {
            "wall_s": min(r["wall_s"] for r in plain),
            "ops_per_s": max(len(r["latencies"]) / r["wall_s"]
                             for r in plain),
            "op_p50_ms": 1000 * percentile(best.values(), 0.5),
            "op_p90_ms": 1000 * percentile(best.values(), 0.9),
        }
        result["setups"] = probes.setups
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probes = None
    if not args.setup_only:
        probes = Probes([args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--workdir", args.workdir], args.workdir,
                        cold=bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.setup()
        emit({"ready": True})
        if args.setup_only:
            return 0
        result = run(workload, args.seconds, bool(args.trace), probes)
    finally:
        workload.close()
    result["peak_rss_mb"] = peak_rss_mb(workload)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
