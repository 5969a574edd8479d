"""Tests for SVG export, the step cache, and policy edge cases."""

import pytest

from repro.boolalg.expr import TRUE
from repro.ccsl import AlternatesRuntime
from repro.engine import (
    AsapPolicy,
    ExecutionModel,
    MinimalPolicy,
    PriorityPolicy,
    Trace,
    simulate_model,
)
from repro.errors import EngineError


class TestSvgExport:
    def test_structure(self):
        trace = Trace(["tick", "tock"])
        trace.append(frozenset({"tick"}))
        trace.append(frozenset({"tock"}))
        svg = trace.to_svg()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "tick" in svg and "tock" in svg
        # two waveform paths
        assert svg.count("<path") == 2

    def test_event_subset(self):
        trace = Trace(["a", "b"])
        trace.append(frozenset({"a"}))
        svg = trace.to_svg(events=["a"])
        assert svg.count("<path") == 1

    def test_empty_trace(self):
        trace = Trace(["a"])
        svg = trace.to_svg()
        assert "<svg" in svg


class TestStepsCache:
    def test_cache_returns_copies(self):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        first = model.acceptable_steps()
        first.append(frozenset({"zzz"}))  # mutate the returned list
        second = model.acceptable_steps()
        assert frozenset({"zzz"}) not in second

    def test_cache_hit_same_formula(self):
        # two models with identical constraints share cached entries and
        # still behave independently
        one = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        two = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        assert one.acceptable_steps() == two.acceptable_steps()
        one.advance(frozenset({"a"}))
        assert one.acceptable_steps() != two.acceptable_steps()


class TestPolicyEdges:
    def test_priority_prefers_weighted_event(self):
        policy = PriorityPolicy({"b": 5})
        step = policy.choose([frozenset({"a"}), frozenset({"b"})], 0)
        assert step == frozenset({"b"})

    def test_priority_tie_breaks_to_larger_step(self):
        policy = PriorityPolicy({})
        step = policy.choose([frozenset({"a"}), frozenset({"a", "b"})], 0)
        assert step == frozenset({"a", "b"})

    def test_minimal_ignores_empty_candidate(self):
        policy = MinimalPolicy()
        step = policy.choose([frozenset(), frozenset({"a", "b"})], 0)
        assert step == frozenset({"a", "b"})

    def test_policies_require_candidates(self):
        for policy in (AsapPolicy(), MinimalPolicy(), PriorityPolicy({})):
            with pytest.raises(EngineError):
                policy.choose([], 0)

    def test_simulator_final_accepting_flag(self):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        result = simulate_model(model, AsapPolicy(), 1)
        # after a single 'a', the alternation is mid-cycle but the
        # precedence runtime has no final-state notion -> accepting
        assert result.final_accepting

    def test_unconstrained_model_formula_is_true(self):
        model = ExecutionModel(["a"])
        assert model.step_formula() is TRUE
