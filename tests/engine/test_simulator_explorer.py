"""Tests for simulation, policies, traces and exhaustive exploration."""

import pytest

from repro.ccsl import AlternatesRuntime, PrecedesRuntime, coincides
from repro.engine import (
    AsapPolicy,
    ExecutionModel,
    MinimalPolicy,
    PriorityPolicy,
    RandomPolicy,
    Trace,
    explore,
    max_cycle_mean_throughput,
    simulate_model,
)
from repro.engine.analysis import check_mutual_exclusion, variable_bounds
from repro.engine.policies import CallbackPolicy
from repro.errors import DeadlockError
from repro.moccml.semantics import AutomatonRuntime
from tests.moccml.test_ast import place_definition


def place_model(push=1, pop=1, delay=0, capacity=2):
    runtime = AutomatonRuntime(place_definition(), {
        "write": "w", "read": "r", "pushRate": push, "popRate": pop,
        "itsDelay": delay, "itsCapacity": capacity}, label="place")
    return ExecutionModel(["w", "r"], [runtime], name="place-model")


class TestSimulator:
    def test_asap_alternation(self):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        result = simulate_model(model, AsapPolicy(), 6)
        assert result.steps_run == 6
        assert list(result.trace) == [frozenset({"a"}), frozenset({"b"})] * 3

    def test_place_capacity_bounds_writes(self):
        model = place_model(capacity=2)
        result = simulate_model(model, PriorityPolicy({"w": 10}), 10)
        # writes always preferred, but capacity forces alternation w w r w r...
        counts = result.trace.counts()
        assert counts["w"] - counts["r"] <= 2

    def test_deadlock_stop(self):
        # a precedes b and b precedes a with nothing started: after zero
        # steps... make a real deadlock: two alternations in conflict
        model = ExecutionModel(
            ["a", "b"],
            [PrecedesRuntime("a", "b"), PrecedesRuntime("b", "a")])
        result = simulate_model(model, AsapPolicy(), 5)
        assert result.deadlocked
        assert result.stop_reason == "deadlock"
        assert result.steps_run == 0

    def test_deadlock_raise(self):
        model = ExecutionModel(
            ["a", "b"],
            [PrecedesRuntime("a", "b"), PrecedesRuntime("b", "a")])
        with pytest.raises(DeadlockError):
            simulate_model(model, AsapPolicy(), 5, on_deadlock="raise")

    def test_stop_condition(self):
        model = place_model(capacity=5)
        result = simulate_model(
            model, AsapPolicy(), 100,
            stop_when=lambda trace: trace.count("r") >= 3)
        assert result.stop_reason == "stop-condition"
        assert result.trace.count("r") == 3

    def test_random_policy_reproducible(self):
        first = simulate_model(place_model(capacity=4), RandomPolicy(seed=7),
                               20)
        second = simulate_model(place_model(capacity=4), RandomPolicy(seed=7),
                                20)
        assert list(first.trace) == list(second.trace)

    def test_minimal_policy_serializes(self):
        model = ExecutionModel(["a", "b"], [coincides("a", "b")])
        model.add_event("c")
        result = simulate_model(model, MinimalPolicy(), 3)
        # minimal non-empty steps: singletons where possible ({c}), else
        # the coincident pair
        assert all(len(step) <= 2 for step in result.trace)

    def test_callback_policy(self):
        model = place_model(capacity=3)
        policy = CallbackPolicy(lambda candidates, index: sorted(
            candidates, key=sorted)[0])
        result = simulate_model(model, policy, 4)
        assert result.steps_run == 4


class TestTrace:
    def test_counts_and_indices(self):
        trace = Trace(["a", "b"])
        trace.append(frozenset({"a"}))
        trace.append(frozenset({"a", "b"}))
        trace.append(frozenset())
        assert trace.count("a") == 2
        assert trace.counts() == {"a": 2, "b": 1}
        assert trace.first_occurrence("b") == 1
        assert trace.first_occurrence("missing") is None
        assert trace.occurrence_indices("a") == [0, 1]
        assert trace.max_parallelism() == 2
        assert trace.mean_parallelism() == 1.0
        assert trace.throughput("a") == 2 / 3

    def test_ascii_rendering(self):
        trace = Trace(["tick", "tock"])
        trace.append(frozenset({"tick"}))
        trace.append(frozenset({"tock"}))
        art = trace.to_ascii()
        lines = art.splitlines()
        assert lines[1].endswith("X.")
        assert lines[2].endswith(".X")

    def test_vcd_export(self):
        trace = Trace(["a"])
        trace.append(frozenset({"a"}))
        vcd = trace.to_vcd()
        assert "$var wire 1" in vcd
        assert "#1" in vcd and "#2" in vcd
        assert vcd.count("1!") == 1  # one rising edge for 'a'


class TestExplorer:
    def test_place_statespace_size(self):
        # place with capacity 3, rates 1: size ranges over 0..3 -> 4 states
        space = explore(place_model(capacity=3))
        assert space.n_states == 4
        assert space.n_transitions == 6  # 3 writes up, 3 reads down
        assert not space.truncated
        assert space.is_deadlock_free()

    def test_alternation_statespace(self):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        space = explore(model)
        assert space.n_states == 2
        assert space.max_parallelism() == 1

    def test_deadlocked_system(self):
        model = ExecutionModel(
            ["a", "b"],
            [PrecedesRuntime("a", "b"), PrecedesRuntime("b", "a")])
        space = explore(model)
        assert space.n_states == 1
        assert space.deadlocks() == [0]
        assert not space.is_deadlock_free()

    def test_truncation_on_unbounded_counter(self):
        model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
        space = explore(model, max_states=10)
        assert space.truncated
        assert space.n_states == 10

    def test_max_depth(self):
        model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
        space = explore(model, max_depth=3)
        assert space.truncated
        assert all(depth <= 3 for depth in space.depth)

    def test_does_not_mutate_input(self):
        model = place_model(capacity=2)
        before = model.configuration()
        explore(model)
        assert model.configuration() == before

    def test_dead_events(self):
        model = place_model(capacity=2)
        model.add_event("never")
        # 'never' is free, so it occurs in steps -> it is live
        space = explore(model)
        assert "never" in space.live_events()


class TestAnalysis:
    def test_parallelism_histogram(self):
        space = explore(place_model(capacity=2))
        histogram = space.parallelism_histogram()
        assert set(histogram) == {1}

    def test_throughput_of_place_cycle(self):
        space = explore(place_model(capacity=1))
        # steady state: w r w r ... -> each event once every 2 steps
        assert max_cycle_mean_throughput(space, "r") == pytest.approx(0.5)
        assert max_cycle_mean_throughput(space, "w") == pytest.approx(0.5)

    def test_throughput_bigger_buffer_still_half(self):
        space = explore(place_model(capacity=4))
        assert max_cycle_mean_throughput(space, "r") == pytest.approx(0.5)

    def test_throughput_no_cycle(self):
        model = ExecutionModel(
            ["a", "b"],
            [PrecedesRuntime("a", "b"), PrecedesRuntime("b", "a")])
        space = explore(model)
        assert max_cycle_mean_throughput(space, "a") == 0.0

    def test_mutual_exclusion_check(self):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        space = explore(model)
        assert check_mutual_exclusion(space, ["a", "b"])
        free = explore(ExecutionModel(["a", "b"]))
        assert not check_mutual_exclusion(free, ["a", "b"])

    def test_variable_bounds_from_space(self):
        model = place_model(capacity=3)
        space = explore(model)
        bounds = variable_bounds(model, space)
        assert bounds["place.size"] == (0, 3)

    def test_variable_bounds_current_only(self):
        model = place_model(capacity=3, delay=2)
        bounds = variable_bounds(model)
        assert bounds["place.size"] == (2, 2)
