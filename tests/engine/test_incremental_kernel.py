"""The incremental symbolic kernel: snapshot/restore, the formula memo,
kernel sharing across clones, and the bounded per-model caches."""

import pytest

from repro.ccsl import (
    AlternatesRuntime,
    CausesRuntime,
    DeadlineRuntime,
    DelayedForRuntime,
    FilterByRuntime,
    PeriodicOnRuntime,
    PrecedesRuntime,
    SampledOnRuntime,
    subclock,
)
from repro.deployment.mocc import CommDelayRuntime, ProcessorMutexRuntime
from repro.engine import (
    AsapPolicy,
    ExecutionModel,
    explore,
    simulate_model,
    simulated_throughput,
)
from repro.engine.policies import CallbackPolicy
from repro.errors import EngineError
from repro.moccml.semantics import AutomatonRuntime
from repro.moccml.semantics.runtime import CompositeRuntime, FormulaRuntime
from tests.moccml.test_ast import place_definition


def place_runtime(**bindings):
    defaults = {"write": "w", "read": "r", "pushRate": 1, "popRate": 1,
                "itsDelay": 0, "itsCapacity": 2}
    defaults.update(bindings)
    return AutomatonRuntime(place_definition(), defaults, label="place")


def all_runtime_samples():
    """One advanced-then-advanced-again instance per runtime family."""
    return [
        (PrecedesRuntime("a", "b"), [{"a"}, {"a"}, {"b"}]),
        (PrecedesRuntime("a", "b", bound=2), [{"a"}, {"a"}]),
        (CausesRuntime("a", "b"), [{"a"}, {"a", "b"}]),
        (AlternatesRuntime("a", "b"), [{"a"}, {"b"}]),
        (DelayedForRuntime("b", "a", 2), [{"a"}, {"a"}, {"a", "b"}]),
        (PeriodicOnRuntime("b", "a", 3), [{"a", "b"}, {"a"}]),
        (SampledOnRuntime("b", "t", "a"), [{"t"}, {"a", "b"}]),
        (FilterByRuntime("b", "a", "1(10)"), [{"a", "b"}, {"a", "b"}]),
        (DeadlineRuntime("a", "b", 1), [{"a"}, set(), {"b"}]),
        (ProcessorMutexRuntime("p", {"x": ("xs", "xe"), "y": ("ys", "ye")}),
         [{"xs"}, {"xe"}]),
        (CommDelayRuntime("w", "r", 1, 1, 2), [{"w"}, set(), {"r"}]),
        (FormulaRuntime("sub", subclock("a", "b").step_formula()),
         [{"b"}, {"a", "b"}]),
        (CompositeRuntime("pair", [PrecedesRuntime("a", "b"),
                                   CausesRuntime("a", "c")]),
         [{"a"}, {"a", "b", "c"}]),
        (place_runtime(), [{"w"}, {"r"}]),
    ]


class TestSnapshotRestoreProtocol:
    @pytest.mark.parametrize(
        "runtime,steps", all_runtime_samples(),
        ids=lambda value: value.label if hasattr(value, "label") else None)
    def test_round_trip_restores_state_exactly(self, runtime, steps):
        mid = len(steps) // 2
        for step in steps[:mid]:
            runtime.advance(frozenset(step))
        token = runtime.snapshot()
        key_at_token = runtime.state_key()
        formula_at_token = runtime.step_formula()
        for step in steps[mid:]:
            runtime.advance(frozenset(step))
        runtime.restore(token)
        assert runtime.state_key() == key_at_token
        assert runtime.step_formula() == formula_at_token
        # the token survives a second divergence + restore
        for step in steps[mid:]:
            runtime.advance(frozenset(step))
        runtime.restore(token)
        assert runtime.state_key() == key_at_token


class TestModelSnapshotRestore:
    def model(self):
        return ExecutionModel(
            ["w", "r"], [place_runtime(),
                         PrecedesRuntime("w", "r", bound=3)],
            name="snap-model")

    def test_round_trip(self):
        model = self.model()
        token = model.snapshot()
        initial_key = model.configuration()
        model.advance(frozenset({"w"}))
        model.advance(frozenset({"r"}))
        assert model.configuration() != initial_key or True  # advanced
        model.restore(token)
        assert model.configuration() == initial_key

    def test_restore_agrees_with_clone(self):
        model = self.model()
        pristine = model.clone()
        token = model.snapshot()
        model.advance(frozenset({"w"}))
        model.restore(token)
        assert model.configuration() == pristine.configuration()
        assert model.acceptable_steps() == pristine.acceptable_steps()

    def test_arity_mismatch_raises(self):
        model = self.model()
        with pytest.raises(EngineError):
            model.restore((None,))


def compiled(model):
    """What the kernel's manager holds and has done: its node count, the
    number of expressions its ``from_expr`` memo has compiled, and the
    ``ite`` and negation operations it has run (a recompile that only
    rebuilds known nodes still counts them)."""
    bdd = model.kernel.bdd
    stats = bdd.cache_stats()
    operations = sum(stats[op]["hits"] + stats[op]["misses"]
                     for op in ("ite", "not"))
    return bdd.node_count(), bdd.cache_sizes()["expr"], operations


class TestKernelSharingAndFormulaMemo:
    def test_static_constraint_compiles_once(self):
        model = ExecutionModel(
            ["a", "b"],
            [FormulaRuntime("sub", subclock("a", "b").step_formula())])
        model.acceptable_steps()
        before = compiled(model)
        for _ in range(5):
            model.advance(frozenset({"b"}))
            model.acceptable_steps()
        assert compiled(model) == before

    def test_formula_regimes_bound_recompilation(self):
        # bounded precedence has three formula regimes -> <= 3 compiles
        model = ExecutionModel(["a", "b"],
                               [PrecedesRuntime("a", "b", bound=3)])
        sizes = [compiled(model)]
        for step in ({"a"}, {"a"}, {"a"}, {"b"}, {"a"}, {"b"}, {"b"}):
            model.acceptable_steps()
            sizes.append(compiled(model))
            model.advance(frozenset(step))
        model.acceptable_steps()
        sizes.append(compiled(model))
        compiles = sum(after != before
                       for before, after in zip(sizes, sizes[1:]))
        assert compiles <= 3
        # the fourth query reached the bound, the last regime: from
        # there on every formula is one the memo has compiled
        assert sizes[4:] == [sizes[4]] * len(sizes[4:])

    def test_clone_shares_kernel_and_diverges_independently(self):
        one = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        one.acceptable_steps()
        two = one.clone()
        assert two.kernel is one.kernel
        cached = one.kernel.cache_sizes()["steps"]
        assert two.acceptable_steps() == one.acceptable_steps()
        # the clone reused the enumeration: no new cache entry
        assert one.kernel.cache_sizes()["steps"] == cached
        one.advance(frozenset({"a"}))
        assert one.acceptable_steps() != two.acceptable_steps()

    def test_add_constraint_detaches_kernel(self):
        model = ExecutionModel(["a", "b"])
        kernel = model.kernel
        model.acceptable_steps()
        model.add_constraint(AlternatesRuntime("a", "b"))
        assert model.kernel is not kernel
        assert model.acceptable_steps() == [frozenset({"a"})]

    def test_clear_caches_preserves_results(self):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        before = model.acceptable_steps()
        model.clear_caches()
        assert model.acceptable_steps() == before

    def test_steps_cache_is_bounded(self):
        model = ExecutionModel(["a", "b"],
                               [PrecedesRuntime("a", "b", bound=2)])
        model.kernel._steps_cache.maxsize = 2
        for step in ({"a"}, {"a"}, {"b"}, {"b"}, {"a"}):
            model.acceptable_steps()
            model.acceptable_steps(include_empty=True)
            model.advance(frozenset(step))
        assert len(model.kernel._steps_cache) <= 2

    def test_max_step_cached_value_correct(self):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        assert model.max_step() == frozenset({"a"})
        assert model.max_step() == frozenset({"a"})  # cached path
        model.advance(frozenset({"a"}))
        assert model.max_step() == frozenset({"b"})


class TestDriversOnTheKernel:
    def model(self):
        return ExecutionModel(
            ["w", "r"], [place_runtime(itsCapacity=3)], name="drv")

    def test_explore_leaves_input_model_untouched(self):
        model = self.model()
        before = model.configuration()
        explore(model, max_states=1000)
        assert model.configuration() == before

    def test_explore_is_deterministic_and_repeatable(self):
        model = self.model()
        first = explore(model, max_states=1000)
        second = explore(model, max_states=1000)
        assert first.to_json() == second.to_json()

    def test_asap_walk_matches_the_candidate_list_choice(self):
        # the BDD walk and a choice among the enumerated candidates
        # agree: a largest step, ties to the earliest events in model
        # order (the walk takes the true branch first, in that order)
        walked = simulate_model(self.model(), AsapPolicy(), 10)
        events = self.model().events
        listed = simulate_model(self.model(), CallbackPolicy(
            lambda candidates, _index: max(candidates, key=lambda step: (
                len(step), [event in step for event in events]))), 10)
        assert walked.trace.steps == listed.trace.steps

    def test_simulated_throughput_leaves_model_untouched(self):
        model = self.model()
        before = model.configuration()
        rates = simulated_throughput(model, ["w", "r"], steps=20)
        assert model.configuration() == before
        assert rates["w"] > 0


class TestBoundedExprMemo:
    """The kernel Bdd's from_expr memo must stay bounded when clones are
    created and discarded in bulk (dead clones' formulas must be evicted
    rather than pinned forever)."""

    def test_memo_bounded_across_1k_clone_discard_cycles(self, monkeypatch):
        from repro.boolalg import Or, Var
        from repro.boolalg.bdd import Bdd
        model = ExecutionModel(
            ["a", "b"], [PrecedesRuntime("a", "b", bound=4)],
            name="cycles")
        kernel = model.kernel
        monkeypatch.setattr(Bdd.MEMOS["expr"], "cap", limit := 256)
        for cycle in range(1_000):
            clone = model.clone()  # shares the kernel
            clone.acceptable_steps()
            clone.advance(frozenset({"a"}), check=False)
            clone.acceptable_steps()
            # a fresh formula per cycle simulates structurally new
            # expressions flowing through the shared manager
            kernel.bdd.from_expr(Or(Var(f"g{cycle}"), Var("a")))
            del clone  # the dead clone must not pin its formulas
            assert kernel.bdd.cache_sizes()["expr"] <= limit

    def test_clear_caches_detaches_dead_kernel(self):
        model = ExecutionModel(
            ["a", "b"], [PrecedesRuntime("a", "b", bound=2)], name="det")
        model.acceptable_steps()
        old_kernel = model.kernel
        model.clear_caches()
        assert model.kernel is not old_kernel
