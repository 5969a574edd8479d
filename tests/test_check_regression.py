"""The benchmark regression gate (``benchmarks/check_regression.py``)."""

import importlib.util
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "check_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(*files):
    """A report holding *files*: ``(name, status, {bench: mean_s})``."""
    return {"files": [
        {"file": name, "status": status,
         "benchmarks": [{"name": bench, "mean_s": mean}
                        for bench, mean in benches.items()]}
        for name, status, benches in files]}


def compare(gate, baseline, fresh):
    # the gate requires its acceptance-critical files in every fresh
    # report; these cases are about the files they name
    required = [(name, "ok", {}) for name in gate.REQUIRED_FILES]
    return gate.compare(report(*baseline, *required),
                        report(*fresh, *required), factor=4.0, floor=0.05)


class TestCompare:
    def test_an_unchanged_report_passes(self, gate):
        files = [("bench_a.py", "ok", {"bench_x": 0.1, "bench_y": 0.2})]
        assert compare(gate, files, files) == []

    def test_a_benchmark_no_longer_measured_fails(self, gate):
        problems = compare(
            gate, [("bench_a.py", "ok", {"bench_x": 0.1, "bench_y": 0.2})],
            [("bench_a.py", "ok", {"bench_x": 0.1})])
        assert problems == ["bench_a.py: bench_y is no longer measured"]

    def test_a_new_benchmark_passes(self, gate):
        assert compare(
            gate, [("bench_a.py", "ok", {"bench_x": 0.1})],
            [("bench_a.py", "ok", {"bench_x": 0.1, "bench_y": 0.2})]) == []

    def test_a_missing_file_fails(self, gate):
        problems = compare(gate, [("bench_a.py", "ok", {"bench_x": 0.1})],
                           [])
        assert problems == ["bench_a.py: present in baseline but not re-run"]

    def test_a_file_that_stopped_passing_fails(self, gate):
        problems = compare(gate, [("bench_a.py", "ok", {"bench_x": 0.1})],
                           [("bench_a.py", "failed", {})])
        assert problems == ["bench_a.py: was ok, now failed"]

    @pytest.mark.parametrize("base_mean, fresh_mean, failed", [
        (0.001, 0.01, False),  # beyond the factor, within the floor
        (0.1, 0.5, True),      # beyond both
        (0.1, 0.39, False),    # within the factor
    ])
    def test_growth_fails_beyond_factor_and_floor(self, gate, base_mean,
                                                  fresh_mean, failed):
        problems = compare(gate,
                           [("bench_a.py", "ok", {"bench_x": base_mean})],
                           [("bench_a.py", "ok", {"bench_x": fresh_mean})])
        assert bool(problems) == failed

    def test_a_required_file_missing_from_the_run_fails(self, gate):
        name = gate.REQUIRED_FILES[0]
        problems = gate.compare(report(), report(), factor=4.0, floor=0.05)
        assert f"{name}: required benchmark missing from the run" in problems
