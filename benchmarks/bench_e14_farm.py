"""E14 — the result farm: warm-store latency and multi-core cold batches.

Two claims, each pinned by a sanity test and measured by a benchmark:

1. **A warm store answers within its budget per spec.** A 24-spec
   corpus over eight models is run cold into a content-addressed store,
   then re-run warm: every artifact is served from disk byte-identically
   instead of recomputed, collapsing batch latency to fingerprint + read
   time. The fastest of ``WARM_PASSES`` warm re-runs, divided by the
   spec count, stays within ``WARM_BUDGET_MS_PER_SPEC``. The budget
   bounds the warm path itself: the cold-over-warm ratio this bench used
   to floor at 10x fell whenever the cold batch got faster, with nothing
   on the warm path regressed. The ratio is still printed.
2. **Processes beat the serial loop on cold multi-model batches (>= 4
   cores).** The engine is pure Python, so only separate processes run
   it in parallel: the process backend rebuilds each model in a worker
   and scales with cores. On smaller machines the speedup assertion is
   skipped — the byte-identity contract is asserted everywhere.

Both claims keep the farm honest about its core contract: identical
artifacts across serial/process and cold/warm.
"""

import os
import time

import pytest

from repro.farm import ArtifactStore
from repro.workbench import CheckSpec, ExploreSpec, SimulateSpec, Workbench


def chain_text(name: str, length: int, capacity: int) -> str:
    agents = "\n".join(f"  agent {name}_a{i}" for i in range(length))
    places = "\n".join(
        f"  place {name}_a{i} -> {name}_a{i+1} push 1 pop 1 "
        f"capacity {capacity}"
        for i in range(length - 1))
    return f"application {name} {{\n{agents}\n{places}\n}}\n"


#: grouped-bar structure of the speedup assertion: with G groups and W
#: workers the parallel makespan is ceil(G/W) rounds of ~equal cost
SPEEDUP_FLOOR = 1.8

#: mean warm-store cost per spec, in ms, of the fastest of
#: ``WARM_PASSES`` warm re-runs of the corpus (workbench set-up,
#: fingerprints and store reads). Readings on a 2-vCPU VM whose speed
#: swings up to 2x: 0.92-1.45 over five runs of the commit before the
#: budget, 0.94-1.69 over ten runs of the commit that set it. The budget
#: leaves 1.5x over the slowest of them; a warm path three times slower
#: read 2.70-3.22, and one that recomputes instead of reading the store
#: 15.3-15.7.
WARM_BUDGET_MS_PER_SPEC = 2.5
WARM_PASSES = 5


#: eight distinct pipelines of near-equal analysis cost (~0.8 s per
#: model group serial). Eight groups over four workers means two full
#: rounds — an ideal parallel speedup of ~4x, leaving real margin over
#: the asserted 1.8x once spawn and rebuild overhead are paid. Distinct
#: names make distinct models (the event alphabets differ), so every
#: group rebuilds and fingerprints independently.
MODELS = {
    name: chain_text(name, length, capacity)
    for name, length, capacity in (
        [(f"farm6c3{tag}", 6, 3) for tag in "wxyz"]
        + [(f"farm7c2{tag}", 7, 2) for tag in "wxyz"]
    )
}


def corpus() -> list:
    """24 specs (>= 12 required): per model one bounded exploration,
    one long simulation, one CTL check — the mixed re-analysis traffic
    a workbench serves."""
    specs = []
    for name in MODELS:
        specs.append(ExploreSpec(name, max_states=1_500))
        specs.append(SimulateSpec(name, steps=120))
        specs.append(CheckSpec(name, "AG !deadlock", max_states=1_500))
    return specs


def make_workbench(store=None) -> Workbench:
    workbench = Workbench(store=store)
    for name, text in MODELS.items():
        workbench.add(text, name=name)
    return workbench


def run_with_store(store) -> tuple[float, list]:
    started = time.perf_counter()
    results = make_workbench(store).run_many(corpus(), backend="serial")
    return time.perf_counter() - started, results


def run_cold(backend: str, workers: int) -> tuple[float, list]:
    workbench = make_workbench()
    started = time.perf_counter()
    results = workbench.run_many(corpus(), workers=workers,
                                 backend=backend)
    return time.perf_counter() - started, results


class TestFarmContract:
    def test_warm_store_within_its_budget_per_spec(self, tmp_path):
        store = ArtifactStore(tmp_path / "farm")
        run_with_store(None)  # warm-up: parser tables, imports
        cold_s, cold = run_with_store(store)
        passes = [run_with_store(store) for _ in range(WARM_PASSES)]
        warm_s = min(seconds for seconds, _results in passes)
        assert all(result.ok for result in cold)
        assert not any(result.cached for result in cold)
        expected = [r.to_json() for r in cold]
        for _seconds, warm in passes:
            assert all(result.cached for result in warm)
            assert [r.to_json() for r in warm] == expected
        per_spec_ms = warm_s * 1000 / len(cold)
        print(f"\ncold: {cold_s:.3f}s  warm: {warm_s:.3f}s "
              f"({per_spec_ms:.2f}ms/spec)  "
              f"speedup: {cold_s / warm_s:.1f}x")
        assert per_spec_ms <= WARM_BUDGET_MS_PER_SPEC

    def test_artifacts_identical_across_backends_and_temperature(
            self, tmp_path):
        baseline = [r.to_json() for r in run_cold("serial", 1)[1]]
        swept = [r.to_json() for r in run_cold("process", 4)[1]]
        assert swept == baseline, "process diverged from serial"
        store = ArtifactStore(tmp_path / "farm")
        run_with_store(store)
        warm = [r.to_json() for r in
                make_workbench(store).run_many(corpus())]
        assert warm == baseline

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="process-vs-serial speedup needs >= 4 cores")
    def test_process_backend_at_least_1_8x_faster_than_serial(self):
        run_cold("serial", 1)  # warm-up parse/import paths
        serial_s, serial_results = run_cold("serial", 1)
        process_s, process_results = run_cold("process", 4)
        assert all(result.ok for result in serial_results)
        assert all(result.ok for result in process_results)
        assert [r.to_json() for r in process_results] \
            == [r.to_json() for r in serial_results]
        speedup = serial_s / process_s
        print(f"\nserial: {serial_s:.3f}s  process: {process_s:.3f}s  "
              f"speedup: {speedup:.2f}x")
        assert speedup >= SPEEDUP_FLOOR


@pytest.mark.benchmark(group="e14-farm-store")
@pytest.mark.parametrize("temperature", ["cold", "warm"])
def bench_store_batch(benchmark, tmp_path, temperature):
    store = ArtifactStore(tmp_path / "farm")
    if temperature == "warm":
        run_with_store(store)  # populate

    def run():
        return make_workbench(store).run_many(corpus(), backend="serial")

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(result.ok for result in results)
    assert all(result.cached for result in results) \
        == (temperature == "warm")


@pytest.mark.benchmark(group="e14-farm-backend")
@pytest.mark.parametrize("backend", ["serial", "process"])
def bench_cold_backend(benchmark, backend):
    workers = min(4, os.cpu_count() or 1)
    results = benchmark.pedantic(run_cold, args=(backend, workers),
                                 rounds=1, iterations=1)[1]
    assert all(result.ok for result in results)
