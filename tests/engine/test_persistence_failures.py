"""Tests for state-space persistence, model copy, and failure injection."""

import pytest

from repro.boolalg.expr import TRUE
from repro.ccsl import AlternatesRuntime
from repro.engine import (
    AsapPolicy,
    ExecutionModel,
    StateSpace,
    explore,
    simulate_model,
)
from repro.errors import SemanticsError, SerializationError
from repro.moccml.semantics.runtime import ConstraintRuntime
from repro.sdf import SdfBuilder, weave_sdf


class TestStateSpacePersistence:
    def space(self):
        builder = SdfBuilder("pipe")
        builder.agent("a")
        builder.agent("b")
        builder.connect("a", "b", capacity=2)
        model, _app = builder.build()
        return explore(weave_sdf(model).execution_model)

    def test_roundtrip_preserves_metrics(self):
        space = self.space()
        back = StateSpace.from_json(space.to_json())
        assert back.n_states == space.n_states
        assert back.n_transitions == space.n_transitions
        assert back.max_parallelism() == space.max_parallelism()
        assert back.deadlocks() == space.deadlocks()
        assert back.distinct_steps() == space.distinct_steps()
        assert back.initial == space.initial
        assert back.events == space.events

    def test_roundtrip_preserves_analyses(self):
        from repro.engine import max_cycle_mean_throughput
        space = self.space()
        back = StateSpace.from_json(space.to_json())
        assert max_cycle_mean_throughput(back, "b.start") == \
            max_cycle_mean_throughput(space, "b.start")

    def test_bad_documents(self):
        with pytest.raises(SerializationError):
            StateSpace.from_json("{nope")
        with pytest.raises(SerializationError):
            StateSpace.from_json('{"kind": "other", "format": 1}')
        with pytest.raises(SerializationError):
            StateSpace.from_json(
                '{"kind": "statespace", "format": 9, "name": "x"}')


class TestModelCopy:
    def test_copy_is_structural_twin(self):
        builder = SdfBuilder("orig")
        builder.agent("p", cycles=2)
        builder.agent("q")
        builder.connect("p", "q", push=2, pop=1, capacity=3)
        model, app = builder.build()
        twin = model.copy("twin")
        assert len(twin) == len(model)
        twin_app = twin.roots[0]
        assert twin_app is not app
        assert [a.name for a in twin_app.get("agents")] == ["p", "q"]
        twin_place = twin_app.get("places")[0]
        assert twin_place.get("capacity") == 3
        # references were remapped into the copy
        assert twin_place.get("outputPort").get("agent") \
            is twin_app.get("agents")[0]

    def test_copy_is_independent(self):
        builder = SdfBuilder("orig")
        builder.agent("x")
        model, app = builder.build()
        twin = model.copy()
        app.get("agents")[0].set("cycles", 9)
        assert twin.roots[0].get("agents")[0].get("cycles") == 0

    def test_copy_weaves_identically(self):
        builder = SdfBuilder("orig")
        builder.agent("a")
        builder.agent("b")
        builder.connect("a", "b", capacity=2)
        model, _app = builder.build()
        original = explore(weave_sdf(model).execution_model)
        copied = explore(
            weave_sdf(model.copy()).execution_model)
        assert original.n_states == copied.n_states
        assert original.n_transitions == copied.n_transitions


class _FaultyConstraint(ConstraintRuntime):
    """A constraint whose advance always explodes — failure injection."""

    def __init__(self):
        super().__init__("faulty", ("a",))

    def step_formula(self):
        return TRUE

    def advance(self, step):
        raise SemanticsError("injected failure")

    def state_key(self):
        return ("faulty",)

    def clone(self):
        return _FaultyConstraint()


class TestFailureInjection:
    def test_simulator_surfaces_constraint_failure(self):
        model = ExecutionModel(["a"], [_FaultyConstraint()])
        with pytest.raises(SemanticsError, match="injected failure"):
            simulate_model(model, AsapPolicy(), 3)

    def test_explorer_surfaces_constraint_failure(self):
        model = ExecutionModel(["a"], [_FaultyConstraint()])
        with pytest.raises(SemanticsError):
            explore(model, max_states=10)

    def test_half_advanced_state_is_detectable(self):
        # a failing constraint leaves earlier constraints advanced; the
        # engine propagates the error so callers can discard the model
        alternation = AlternatesRuntime("a", "b")
        model = ExecutionModel(["a", "b"],
                               [alternation, _FaultyConstraint()])
        model.add_event("a")
        with pytest.raises(SemanticsError):
            model.advance(frozenset({"a"}))
        assert alternation.advance_count == 1  # documented behaviour


class TestCliCampaign:
    def test_campaign_command(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "app.sigpml"
        path.write_text(
            "application c {\n agent a\n agent b\n"
            " place a -> b capacity 2\n}\n")
        assert main(["campaign", str(path), "--steps", "10",
                     "--watch", "b.start"]) == 0
        out = capsys.readouterr().out
        assert "asap" in out
        assert "b.start" in out
