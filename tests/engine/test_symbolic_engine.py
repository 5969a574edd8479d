"""Unit tests of the symbolic fixpoint engine itself: local closure,
variable-order heuristic, relation encoding, fixpoint iteration,
symbolic CTL checks of invariants, and kernel-level caching."""

import pytest

from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.engine import (
    ExecutionModel,
    CompiledStateView,
    Verdict,
    check,
    explore,
    symbolic_reachable,
    symbolic_variable_bounds,
)
from repro.engine.symbolic import (
    MAX_ALPHABET,
    TransitionSystem,
    _close_local,
    _constraint_order,
)
from repro.errors import EngineError, SymbolicEncodingError
from repro.sdf import SdfBuilder, weave_sdf


def chain_model(length=3, capacity=2):
    builder = SdfBuilder(f"chain{length}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


class TestLocalClosure:
    def test_alternates_has_two_states(self):
        space = _close_local(0, AlternatesRuntime("a", "b"), 64)
        assert space.n_states == 2
        assert space.alphabet == ("a", "b")
        # from the initial state only {} and {a} are acceptable
        assert set(space.delta[0]) == {frozenset(), frozenset({"a"})}
        assert space.delta[0][frozenset({"a"})] == 1
        assert space.delta[0][frozenset()] == 0

    def test_bounded_precedes_state_count(self):
        space = _close_local(0, PrecedesRuntime("a", "b", bound=3), 64)
        assert space.n_states == 4  # counter values 0..3

    def test_unbounded_counter_overflows(self):
        with pytest.raises(SymbolicEncodingError, match="closure bound"):
            _close_local(0, PrecedesRuntime("a", "b"), 16)

    def test_keys_match_runtime_state_keys(self):
        runtime = AlternatesRuntime("a", "b")
        space = _close_local(0, runtime, 64)
        assert space.keys[0] == runtime.state_key()


class TestConstraintOrder:
    def test_pipeline_order_recovered(self):
        model = chain_model(4, capacity=1)
        order = _constraint_order(model.constraints)
        # neighbours in the order must share events often: check that
        # every constraint is adjacent to at least one event-sharing
        # constraint (the pipeline property), except possibly at seams
        labels = [model.constraints[i].label for i in order]
        assert len(labels) == len(model.constraints)
        adjacent_sharing = 0
        for left, right in zip(order, order[1:]):
            shared = (model.constraints[left].constrained_events
                      & model.constraints[right].constrained_events)
            adjacent_sharing += bool(shared)
        assert adjacent_sharing >= len(order) // 2

    def test_order_is_a_permutation(self):
        model = chain_model(3)
        order = _constraint_order(model.constraints)
        assert sorted(order) == list(range(len(model.constraints)))


class TestTransitionSystem:
    def test_interleaved_current_primed_bits(self):
        system = TransitionSystem(chain_model(3))
        order = system.bdd.order
        for index in range(len(system.tables)):
            for cur, primed in zip(system.cur_names[index],
                                   system.primed_names[index]):
                assert order.index(primed) == order.index(cur) + 1

    def test_steps_match_execution_model(self):
        model = chain_model(3)
        system = TransitionSystem(model)
        assert list(system.steps_at(system.initial_ids)) == \
            model.clone().acceptable_steps()

    def test_successor_matches_advance(self):
        model = chain_model(3)
        system = TransitionSystem(model)
        work = model.clone()
        for step in work.acceptable_steps():
            succ = system.successor(system.initial_ids, step)
            snapshot = work.snapshot()
            work.advance(step, check=False)
            assert system.decode_key(succ) == work.configuration()
            work.restore(snapshot)

    def test_unacceptable_step_raises(self):
        system = TransitionSystem(chain_model(3))
        with pytest.raises(EngineError, match="not acceptable"):
            system.successor(system.initial_ids,
                             frozenset({"a2.start", "a2.stop"}))

    def test_wide_alphabet_rejected(self):
        from repro.moccml.semantics.runtime import FormulaRuntime
        from repro.boolalg.expr import Or, Var
        events = [f"e{i}" for i in range(MAX_ALPHABET + 1)]
        model = ExecutionModel(
            events, [FormulaRuntime("wide", Or(*map(Var, events)))],
            name="wide")
        with pytest.raises(SymbolicEncodingError, match="alphabet"):
            TransitionSystem(model)


class TestFixpoint:
    def test_layer_counts_sum_to_total(self):
        reachable = symbolic_reachable(chain_model(3))
        assert sum(reachable.layer_counts()) == reachable.count()

    def test_states_enumeration_matches_graph(self):
        model = chain_model(3)
        space = explore(model)
        assert set(symbolic_reachable(model).states()) == set(space.keys)

    def test_contains_initial(self):
        model = chain_model(3)
        reachable = symbolic_reachable(model)
        assert reachable.contains(reachable.system.initial_ids)

    def test_to_statespace_roundtrip(self):
        model = chain_model(3)
        system = model.kernel.transition_system(model)
        assert system.to_statespace().to_json() == \
            explore(model).to_json()


class TestSymbolicAnalyses:
    def test_deadlock_free_chain(self):
        result = check(chain_model(3), "AG !deadlock", strategy="symbolic")
        assert result.verdict is Verdict.HOLDS
        assert result.states == 9

    def test_deadlocking_model(self):
        # a must lead and b must lead: no first step at all
        model = ExecutionModel(
            ["a", "b"],
            [AlternatesRuntime("a", "b"), AlternatesRuntime("b", "a")],
            name="deadlock")
        assert check(model, "AG !deadlock",
                     strategy="symbolic").verdict is Verdict.FAILS
        assert not explore(model).is_deadlock_free()

    def test_liveness_matches_graph(self):
        model = chain_model(3)
        alive = {event for event in model.events
                 if check(model, f"EF occurs({event})",
                          strategy="symbolic").verdict is Verdict.HOLDS}
        assert alive == explore(model).live_events()
        assert alive < set(model.events)  # the isExecuting events are dead

    def test_variable_bounds_match_graph(self):
        from repro.engine import variable_bounds
        model = chain_model(3, capacity=2)
        assert symbolic_variable_bounds(model) == \
            variable_bounds(model, explore(model))

    def test_buffer_bound_verification(self):
        model = chain_model(3, capacity=2)
        label = next(c.label for c in model.constraints
                     if "Place" in c.label)
        assert check(model, f"AG var({label}.size) <= 2",
                     strategy="symbolic").verdict is Verdict.HOLDS
        assert check(model, f"AG var({label}.size) <= 1",
                     strategy="symbolic").verdict is Verdict.FAILS

    def test_unknown_variable_raises(self):
        with pytest.raises(EngineError, match="no constraint labelled"):
            check(chain_model(2), "AG var(nope.var) <= 1",
                  strategy="symbolic")

    def test_local_states_by_label(self):
        model = chain_model(3, capacity=2)
        reachable = symbolic_reachable(model)
        label = next(c.label for c in model.constraints
                     if "Place" in c.label)
        sizes = {dict(key[2])["size"]
                 for key in reachable.local_states(label)}
        assert sizes == {0, 1, 2}
        with pytest.raises(EngineError, match="no constraint labelled"):
            reachable.local_states("missing")


class TestKernelCaching:
    def test_transition_system_shared_across_clones(self):
        model = chain_model(3)
        system = model.kernel.transition_system(model)
        clone = model.clone()
        assert clone.kernel.transition_system(clone) is system
        assert model.kernel.cache_sizes()["transition_systems"] == 1

    def test_clear_drops_transition_systems(self):
        model = chain_model(3)
        model.kernel.transition_system(model)
        model.kernel.clear()
        assert model.kernel.cache_sizes()["transition_systems"] == 0

    def test_compiled_view_protocol(self):
        model = chain_model(3)
        view = CompiledStateView(model.kernel.transition_system(model))
        work = model.clone()
        assert view.configuration() == work.configuration()
        assert view.is_accepting() == work.is_accepting()
        token = view.snapshot()
        step = view.acceptable_steps()[0]
        view.advance(step)
        assert view.configuration() != token and view.snapshot() != token
        view.restore(token)
        assert view.configuration() == work.configuration()
