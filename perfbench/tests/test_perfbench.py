"""Self-tests of the benchmark, at smoke size.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Each workload must print every metric named in ``BENCHMARK.json`` with
its unit and no failures; traced and untraced rounds must give identical
outputs; exact counts must repeat between two runs of one seed; no
layer's self time may exceed the wall time of its op; and the benchmark
must refuse to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import batch_explicit  # noqa: E402
import check_symbolic  # noqa: E402
import gen  # noqa: E402
import refs  # noqa: E402
from layers import NoRecorder, Recorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
EXACT = json.load(open(os.path.join(BENCH, "attribution.json"),
                       encoding="utf-8"))["exact_counts"]


def bench(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return completed


_TRACED: dict[str, dict] = {}


def traced_run(workload: str) -> dict:
    if workload not in _TRACED:
        completed = bench(workload, 1)
        assert completed.returncode == 0, completed.stderr
        _TRACED[workload] = json.loads(completed.stdout.splitlines()[-1])
    return _TRACED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    completed = bench(workload, 0)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    result = traced_run(workload)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_one_seed(workload):
    first = traced_run(workload)
    completed = bench(workload, 1)
    assert completed.returncode == 0, completed.stderr
    second = json.loads(completed.stdout.splitlines()[-1])
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("module", [check_symbolic, batch_explicit])
def test_traced_and_untraced_rounds_agree(module, tmp_path):
    workload = module.Workload(3, str(tmp_path))
    workload.setup()
    plain = workload.run_round(0, NoRecorder(), decomposed=False)
    recorder = Recorder()
    traced = workload.run_round(0, recorder, decomposed=True)
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["digest"] == traced["digest"]
    assert plain["attempted"] == traced["attempted"]
    assert recorder.calls("op") == traced["attempted"]
    assert recorder.op_violations() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def docs(seed, round_index):
        workload = batch_explicit.Workload(seed, str(tmp_path))
        records, specs, _index = workload.corpus(round_index)
        return [r["doc"] for r in records], [s.to_doc() for s in specs]
    assert docs(1, 0) == docs(1, 0)
    # the shapes are fixed; the seed draws properties and policies
    assert docs(1, 0)[0] == docs(2, 0)[0]
    assert docs(1, 0)[1] != docs(2, 0)[1]
    ops = check_symbolic.Workload(5, str(tmp_path)).ops
    assert [op.props for op in ops(2)] == [op.props for op in ops(2)]


def test_references_are_hand_derived():
    assert refs.expected_states(gen.chain(5, 2), True) == 81
    assert refs.expected_states(gen.chain(8, 1), True) == 128
    assert refs.deadlock_free(gen.chain(6, 1))
    assert refs.deadlock_free(gen.torus(2, 3))
    assert not refs.deadlock_free(gen.starved(6))
    assert not refs.deadlock_free(gen.deployed_chain(4, 2, 2))
    assert refs.deadlock_free(gen.deployed_chain(4, 1, 2))
    assert refs.expected_verdict("below", True) == "fails"
    assert refs.expected_verdict("leads", False) == "fails"
