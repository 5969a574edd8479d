"""Tests for replay policy, observers and the symbolic ASAP fast path."""

import pytest

from repro.ccsl import AlternatesRuntime
from repro.engine import (
    AsapPolicy,
    ExecutionModel,
    ReplayPolicy,
    simulate_model,
)
from repro.errors import EngineError
from repro.sdf import SdfBuilder, weave_sdf


def alternation_model():
    return ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])


class TestReplayPolicy:
    def test_replay_reproduces_trace(self):
        original = simulate_model(alternation_model(), AsapPolicy(), 6)
        replayed = simulate_model(alternation_model(),
                                  ReplayPolicy(original.trace), 10)
        assert list(replayed.trace) == list(original.trace)
        # recording exhausted after 6 steps -> reported as stop
        assert replayed.steps_run == 6

    def test_replay_detects_divergence(self):
        # record on a free model, replay against the alternation MoCC
        free_trace = [frozenset({"a"}), frozenset({"a"})]
        with pytest.raises(EngineError):
            simulate_model(alternation_model(), ReplayPolicy(free_trace), 5)

    def test_replay_infinite_trace_against_deployment(self):
        # the infinite-resource schedule is NOT valid on a mono-processor:
        # in a 3-chain, a0 and a2 (no shared place) fire together freely
        from repro.deployment import Allocation, Platform, deploy

        def build():
            builder = SdfBuilder("tri")
            for index in range(3):
                builder.agent(f"a{index}")
            builder.connect("a0", "a1", capacity=2)
            builder.connect("a1", "a2", capacity=2)
            return builder.build()

        model, _app = build()
        free = weave_sdf(model).execution_model
        free_run = simulate_model(free, AsapPolicy(), 10)
        parallel_steps = [
            step for step in free_run.trace
            if sum(1 for e in step if e.endswith(".start")) > 1]
        assert parallel_steps  # the free run does fire agents together

        model2, app2 = build()
        platform = Platform("mono")
        platform.processor("cpu")
        deployed = deploy(model2, app2, platform,
                          Allocation({f"a{i}": "cpu" for i in range(3)}))
        with pytest.raises(EngineError):
            simulate_model(deployed.execution_model,
                           ReplayPolicy(free_run.trace), len(free_run.trace))


class TestObservers:
    def test_observer_called_per_step(self):
        seen = []
        simulate_model(
            alternation_model(), AsapPolicy(), 4,
            observers=[lambda i, step, model: seen.append((i, step))])
        assert [i for i, _ in seen] == [0, 1, 2, 3]
        assert seen[0][1] == frozenset({"a"})

    def test_observer_sees_model_state(self):
        sizes = []

        def watch(_index, _step, model):
            constraint = model.constraints[0]
            sizes.append(constraint.advance_count)

        simulate_model(alternation_model(), AsapPolicy(), 4, observers=[watch])
        assert sizes == [1, 0, 1, 0]


class TestSymbolicAsap:
    def test_fast_path_matches_enumeration_on_maximality(self):
        # same model driven with both thresholds: step cardinalities agree
        builder = SdfBuilder("chain")
        for index in range(4):
            builder.agent(f"a{index}")
        for index in range(3):
            builder.connect(f"a{index}", f"a{index+1}", capacity=2)
        model, _app = builder.build()

        enumerating = simulate_model(
            weave_sdf(model).execution_model,
            AsapPolicy(symbolic_threshold=10_000), 15)
        symbolic = simulate_model(
            weave_sdf(model).execution_model,
            AsapPolicy(symbolic_threshold=0), 15)
        enum_sizes = [len(step) for step in enumerating.trace]
        symb_sizes = [len(step) for step in symbolic.trace]
        assert enum_sizes == symb_sizes

    def test_max_step_none_on_deadlock(self):
        from repro.ccsl import PrecedesRuntime
        model = ExecutionModel(
            ["a", "b"], [PrecedesRuntime("a", "b"),
                         PrecedesRuntime("b", "a")])
        assert model.max_step() is None

    def test_max_step_is_acceptable_and_maximal(self):
        builder = SdfBuilder("duo")
        builder.agent("x")
        builder.agent("y")
        builder.connect("x", "y", capacity=2, delay=1)
        model, _app = builder.build()
        engine_model = weave_sdf(model).execution_model
        step = engine_model.max_step()
        assert engine_model.is_acceptable(step)
        best = max(engine_model.acceptable_steps(), key=len)
        assert len(step) == len(best)
