"""Tests for state-space metrics, analyses, latency and projections."""

import pytest

from repro.engine import (
    AsapPolicy,
    ExecutionModel,
    Trace,
    event_liveness,
    explore,
    parallelism_profile,
    simulate_model,
)
from repro.engine.analysis import occurrence_latency
from repro.engine.explorer import _maximal_steps
from repro.sdf import SdfBuilder, weave_sdf


def pipeline_space(maximal_only=False, length=3, capacity=2):
    builder = SdfBuilder("pipe")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index+1}", capacity=capacity)
    model, _app = builder.build()
    return explore(weave_sdf(model).execution_model,
                   maximal_only=maximal_only, max_states=50_000)


class TestStateSpaceMetrics:
    def test_summary_keys(self):
        space = pipeline_space()
        summary = space.summary()
        assert set(summary) == {
            "states", "transitions", "distinct_steps", "deadlocks",
            "max_parallelism", "mean_branching", "dead_events", "truncated"}

    def test_mean_branching(self):
        space = pipeline_space()
        assert space.mean_branching() == pytest.approx(
            space.n_transitions / space.n_states)

    def test_recurrent_components_exist_for_live_system(self):
        space = pipeline_space()
        components = space.recurrent_components()
        assert components
        assert all(len(c) >= 1 for c in components)

    def test_self_loop_counts_as_recurrent(self):
        model = ExecutionModel(["a"])
        space = explore(model)
        # single state with {a} self-loop
        assert space.n_states == 1
        assert space.recurrent_components() == [{0}]

    def test_event_liveness(self):
        space = pipeline_space()
        liveness = event_liveness(space)
        assert liveness["a0.start"] is True
        assert liveness["a0.isExecuting"] is False  # cycles = 0

    def test_parallelism_profile(self):
        space = pipeline_space()
        profile = parallelism_profile(space)
        assert profile["max"] >= 3.0
        assert 0 < profile["mean"] <= profile["max"]
        assert profile["transitions"] == float(space.n_transitions)


class TestMaximalOnlyExploration:
    def test_reduces_transitions(self):
        full = pipeline_space(maximal_only=False)
        reduced = pipeline_space(maximal_only=True)
        assert reduced.n_transitions < full.n_transitions
        assert reduced.n_states <= full.n_states

    def test_preserves_peak_parallelism(self):
        full = pipeline_space(maximal_only=False)
        reduced = pipeline_space(maximal_only=True)
        assert reduced.max_parallelism() == full.max_parallelism()

    def test_maximal_steps_helper(self):
        steps = [frozenset(), frozenset({"a"}), frozenset({"b"}),
                 frozenset({"a", "b"})]
        assert _maximal_steps(steps) == [frozenset({"a", "b"})]
        incomparable = [frozenset({"a"}), frozenset({"b"})]
        assert _maximal_steps(incomparable) == incomparable


class TestLatency:
    def test_pipeline_latency(self):
        builder = SdfBuilder("duo")
        builder.agent("src")
        builder.agent("dst")
        builder.connect("src", "dst", capacity=2)
        model, _app = builder.build()
        result = simulate_model(weave_sdf(model).execution_model,
                                AsapPolicy(), 10)
        latencies = occurrence_latency(result.trace, "src.start",
                                       "dst.start")
        assert latencies
        assert all(value >= 1 for value in latencies)  # rw exclusion

    def test_latency_pairs_in_order(self):
        trace = Trace(["c", "e"])
        for step in ({"c"}, set(), {"e", "c"}, {"e"}):
            trace.append(frozenset(step))
        assert occurrence_latency(trace, "c", "e") == [2, 1]

    def test_unmatched_causes_ignored(self):
        trace = Trace(["c", "e"])
        trace.append(frozenset({"c"}))
        trace.append(frozenset({"c"}))
        trace.append(frozenset({"e"}))
        assert occurrence_latency(trace, "c", "e") == [2]


class TestTraceProjection:
    def test_project_restricts_events(self):
        trace = Trace(["a", "b", "c"])
        trace.append(frozenset({"a", "b"}))
        trace.append(frozenset({"c"}))
        projected = trace.project(["a", "c"])
        assert projected.events == ["a", "c"]
        assert list(projected) == [frozenset({"a"}), frozenset({"c"})]

    def test_project_preserves_length(self):
        trace = Trace(["a", "b"])
        trace.append(frozenset({"b"}))
        projected = trace.project(["a"])
        assert len(projected) == 1
        assert projected[0] == frozenset()

    def test_ascii_window(self):
        trace = Trace(["x"])
        for index in range(10):
            trace.append(frozenset({"x"} if index % 2 == 0 else set()))
        art = trace.to_ascii(start=4, width=4)
        lines = art.splitlines()
        assert lines[1].endswith("X.X.")

    def test_vcd_many_events(self):
        # exercise multi-character VCD identifiers (> 94 events)
        events = [f"e{i}" for i in range(100)]
        trace = Trace(events)
        trace.append(frozenset({"e99"}))
        vcd = trace.to_vcd()
        assert "$var wire 1" in vcd
        # identifiers must be unique
        ids = [line.split()[3]
               for line in vcd.splitlines() if line.startswith("$var")]
        assert len(set(ids)) == 100


class TestVariableBoundsMore:
    def test_bounds_with_deployment_comm_delay(self):
        from repro.deployment import CommDelayRuntime
        model = ExecutionModel(
            ["w", "r"],
            [CommDelayRuntime("w", "r", push=1, pop=1, latency=1)])
        space = explore(model, max_states=50)
        # CommDelay is not an AutomatonRuntime: bounds just stay empty
        from repro.engine import variable_bounds
        assert variable_bounds(model, space) == {}
