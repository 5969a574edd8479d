"""Exploration and simulation through memoized local transition tables.

The reference is the stepping the tables replace: the same BFS skeleton
driven by a model clone, and the same simulation loop driven by the live
model, re-running every constraint runtime on every edge or step. Every
exploration and simulation here must match it byte for byte.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.boolalg import And, Bdd, Not, Or, TRUE, Var, iter_models
from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.deployment import Allocation, Platform, deploy
from repro.engine import (
    AsapPolicy,
    ExecutionModel,
    LocalTable,
    MinimalPolicy,
    PriorityPolicy,
    RandomPolicy,
    ReplayPolicy,
    SimulationResult,
    Trace,
    explore,
    simulate_model,
)
from repro.engine.ctl import check
from repro.engine.equivalence import battery_texts
from repro.engine.execution_model import SymbolicKernel
from repro.engine.explorer import _bfs
from repro.engine.policies import CallbackPolicy
from repro.engine.symbolic import TransitionSystem, _close_local
from repro.engine.tables import TableStepper
from repro.errors import EngineError, SemanticsError
from repro.moccml.semantics.runtime import ConstraintRuntime, FormulaRuntime
from repro.pam.experiments import build_configuration
from repro.sdf import SdfBuilder
from tests.boolalg.test_bdd_reorder import NAMES, exprs
from tests.engine.test_symbolic_equivalence import CORPUS
from tests.moccml.test_semantic_corners import watchdog_runtime


def reference(model, max_states=10_000, max_depth=None,
              include_empty=False, maximal_only=False):
    """Explicit exploration by re-running the runtimes edge by edge."""
    return _bfs(model.clone(), model.name, list(model.events),
                max_states=max_states, max_depth=max_depth,
                include_empty=include_empty, maximal_only=maximal_only)


def keys(space):
    """The configuration key of every explored state, in id order."""
    return list(space.keys)


def assert_same(model, **budgets):
    expected = reference(model, **budgets)
    for _ in range(2):  # the second exploration reads the warm tables
        space = explore(model, **budgets)
        assert space.to_json() == expected.to_json()
        assert keys(space) == keys(expected)


def reference_simulate(model, policy, max_steps, observers=()):
    """Simulation by re-running the runtimes of the live model step by
    step: the loop the tables replace."""
    result = SimulationResult(trace=Trace(model.events))
    check = not getattr(policy, "yields_acceptable_steps", False)
    for index in range(max_steps):
        step = policy.choose_from_model(model, index)
        if step is None:
            result.deadlocked = True
            result.stop_reason = "deadlock"
            break
        model.advance(step, check=check)
        result.trace.append(step)
        result.steps_run += 1
        for observer in observers:
            observer(index, step, model)
    result.final_accepting = model.is_accepting()
    return result


def deployed_chain(length=4, latency=2):
    builder = SdfBuilder(f"deployed{length}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=2,
                        name=f"p{index}")
    model, app = builder.build()
    platform = Platform("duo")
    platform.processor("cpu0")
    platform.processor("cpu1")
    platform.link("cpu0", "cpu1", latency=latency)
    half = length // 2
    allocation = Allocation({f"a{index}": "cpu0" if index < half else "cpu1"
                             for index in range(length)})
    return deploy(model, app, platform, allocation).execution_model


def unbounded_precedes():
    return ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")],
                          name="unbounded")


def watchdog():
    return ExecutionModel(["kick", "alarm"], [watchdog_runtime()],
                          name="watchdog")


class ModThreeGate(ConstraintRuntime):
    """A runtime written to the four required methods alone: a mod-3
    counter of *tick* that lets *gated* occur only at zero. It keeps the
    default ``snapshot``/``restore``, so the tables hold clone tokens."""

    def __init__(self, tick, gated):
        super().__init__(f"ModThree({tick}, {gated})", (tick, gated))
        self.tick = tick
        self.gated = gated
        self.count = 0

    def step_formula(self):
        return TRUE if self.count == 0 else Not(Var(self.gated))

    def advance(self, step):
        if self.gated in step and self.count:
            raise SemanticsError(f"{self.label}: {self.gated} is gated")
        self.count = (self.count + (self.tick in step)) % 3

    def state_key(self):
        return (self.label, self.count)

    def clone(self):
        copy = ModThreeGate(self.tick, self.gated)
        copy.count = self.count
        return copy


def mod_three():
    return ExecutionModel(["tick", "gated"],
                          [ModThreeGate("tick", "gated")], name="mod3")


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_equivalence_corpus(self, name):
        assert_same(CORPUS[name](), max_states=20_000)

    @pytest.mark.parametrize("make", [
        deployed_chain,
        lambda: build_configuration("mono"),
        lambda: build_configuration("dual"),
    ], ids=["deployed-chain", "pam-mono", "pam-dual"])
    def test_locally_unbounded_comm_delays(self, make):
        assert_same(make())

    @pytest.mark.parametrize("max_states", [1, 7, 50])
    def test_unbounded_precedes_truncates(self, max_states):
        model = unbounded_precedes()
        space = explore(model, max_states=max_states)
        assert space.truncated
        assert_same(model, max_states=max_states)

    def test_empty_step_transition(self):
        # the watchdog's miss counter is unbounded: truncate both ways
        model = watchdog()
        with_empty = explore(model, include_empty=True, max_states=200)
        assert with_empty.n_states > explore(model, max_states=200).n_states
        assert_same(model, include_empty=True, max_states=200)

    @pytest.mark.parametrize("name", ["chain3-cap2", "forkjoin",
                                      "ccsl-mix"])
    def test_maximal_only(self, name):
        assert_same(CORPUS[name](), maximal_only=True)

    @pytest.mark.parametrize("max_depth", [0, 1, 3])
    def test_max_depth(self, max_depth):
        assert_same(CORPUS["chain3-cap2"](), max_depth=max_depth)
        assert_same(deployed_chain(), max_depth=max_depth)

    def test_four_method_runtime(self):
        assert_same(mod_three())
        assert_same(mod_three(), include_empty=True)

    def test_auto_below_threshold_and_unencodable_use_tables(self):
        # exploration never compiles a symbolic system, whatever the model
        for model in (CORPUS["ccsl-mix"](), deployed_chain()):
            assert explore(model).to_json() == reference(model).to_json()
            assert model.kernel.cache_sizes()["transition_systems"] == 0


class TestTableSharing:
    def test_clones_share_one_table_set(self):
        model = CORPUS["chain3-cap2"]()
        clone = model.clone()
        explore(clone)
        tables = clone.kernel.tables
        assert len(tables) == len(model.constraints)
        assert model.kernel.tables is tables
        explore(model)
        assert model.kernel.tables is tables  # reused, not rebuilt

    def test_mid_simulation_configuration(self):
        model = deployed_chain()
        explore(model)  # tables rooted at the initial configuration
        for _ in range(5):
            model.advance(model.acceptable_steps()[-1])
        configuration = model.configuration()
        snapshot = model.snapshot()
        expected = reference(model).to_json()
        assert explore(model).to_json() == expected
        assert model.configuration() == configuration
        assert model.snapshot() == snapshot

    def test_tables_fill_only_as_far_as_explored(self):
        model = unbounded_precedes()
        explore(model, max_states=5)
        small = model.kernel.cache_sizes()["local_states"]
        explore(model, max_states=40)
        assert model.kernel.cache_sizes()["local_states"] > small


class TestCacheLifecycle:
    def test_cache_sizes_report_tables(self):
        model = CORPUS["ccsl-mix"]()
        assert model.kernel.cache_sizes()["local_tables"] == 0
        assert model.kernel.cache_sizes()["local_states"] == 0
        space = explore(model)
        sizes = model.kernel.cache_sizes()
        assert sizes["local_tables"] == len(model.constraints)
        assert 0 < sizes["local_states"] <= \
            space.n_states * len(model.constraints)

    def test_kernel_clear_drops_tables(self):
        model = CORPUS["ccsl-mix"]()
        before = explore(model).to_json()
        model.kernel.clear()
        assert model.kernel.tables == []
        assert model.kernel.cache_sizes()["local_states"] == 0
        assert explore(model).to_json() == before

    def test_clear_caches_drops_tables(self):
        model = CORPUS["ccsl-mix"]()
        explore(model)
        old = model.kernel
        model.clear_caches()
        assert model.kernel is not old
        assert model.kernel.cache_sizes()["local_tables"] == 0


class TestLocalTable:
    def test_closure_is_a_closed_table(self):
        table = _close_local(0, PrecedesRuntime("a", "b", bound=2), 64)
        assert isinstance(table, LocalTable)
        assert table.closed and table.n_states == 3
        with pytest.raises(EngineError, match="not acceptable"):
            table.step(0, frozenset({"b"}))  # nothing to consume yet

    def test_lazy_table_fills_on_miss(self):
        runtime = PrecedesRuntime("a", "b")
        table = LocalTable(0, runtime)
        assert table.n_states == 1 and not table.closed
        one = table.step(0, frozenset({"a"}))
        assert table.n_states == 2
        assert table.keys[one] == (runtime.label, 1)
        assert table.step(0, frozenset({"a"})) == one  # memoized
        assert runtime.state_key() == table.keys[0]  # caller untouched

    def test_locate_admits_unseen_states(self):
        runtime = PrecedesRuntime("a", "b")
        table = LocalTable(0, runtime)
        probe = runtime.clone()
        for _ in range(3):
            probe.advance(frozenset({"a"}))
        local_id = table.locate(probe)
        assert table.keys[local_id] == probe.state_key()
        assert table.locate(probe) == local_id


class LenientPrecedes(PrecedesRuntime):
    """A precedence whose ``advance()`` trusts its caller: it counts
    whatever it is given, even an effect before its cause."""

    def advance(self, step):
        self.advance_count += (self.cause in step) - (self.effect in step)

    def clone(self):
        copy = LenientPrecedes(self.cause, self.effect, self.bound,
                               self.label)
        copy.advance_count = self.advance_count
        return copy


class TestViewAdvanceCheck:
    @pytest.mark.parametrize("runtime", [AlternatesRuntime("a", "b"),
                                         LenientPrecedes("a", "b")],
                             ids=["rejecting", "lenient"])
    def test_unacceptable_step_never_reaches_the_tables(self, runtime):
        model = ExecutionModel(["a", "b"], [runtime], name="alt")
        view = model.kernel.table_view(model)
        states = model.kernel.cache_sizes()["local_states"]
        with pytest.raises(EngineError, match=(
                r"step \['b'\] is not acceptable in the current "
                r"configuration of 'alt'")):
            view.advance(frozenset({"b"}))
        assert model.kernel.cache_sizes()["local_states"] == states
        assert view.configuration() == model.configuration()

    def test_unknown_event_is_rejected(self):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
        with pytest.raises(EngineError, match="unknown event"):
            model.kernel.table_view(model).advance(frozenset({"zz"}))

    def test_unchecked_advance_trusts_the_caller(self):
        model = ExecutionModel(["a", "b"], [LenientPrecedes("a", "b")])
        view = model.kernel.table_view(model)
        view.advance(frozenset({"b"}), check=False)
        assert view.configuration() == ((model.constraints[0].label, -1),)


def simulated_models():
    models = dict(CORPUS)
    models.update({
        "deployed-chain": deployed_chain,
        "pam-mono": lambda: build_configuration("mono"),
        "pam-dual": lambda: build_configuration("dual"),
        "unbounded": unbounded_precedes,
    })
    return models


def recorded_trace(make):
    """A schedule to replay: a random run of the model."""
    return list(simulate_model(make(), RandomPolicy(seed=11), 30).trace)


POLICIES = {
    "asap": lambda make: AsapPolicy(),
    "minimal": lambda make: MinimalPolicy(),
    "random": lambda make: RandomPolicy(seed=3),
    "priority": lambda make: PriorityPolicy(
        {event: index % 3 for index, event in enumerate(make().events)}),
    "replay": lambda make: ReplayPolicy(recorded_trace(make)),
    "callback": lambda make: CallbackPolicy(
        lambda candidates, index: candidates[index % len(candidates)]),
}


def outcome(result, model):
    return (list(result.trace), result.deadlocked, result.stop_reason,
            result.final_accepting, result.steps_run, model.snapshot(),
            model.configuration())


class TestSimulationMatchesLiveModel:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("name", sorted(simulated_models()))
    def test_same_run_as_the_live_model(self, name, policy):
        make = simulated_models()[name]
        expected_model = make()
        expected = reference_simulate(expected_model,
                                      POLICIES[policy](make), 30)
        model = make()
        result = simulate_model(model, POLICIES[policy](make), 30)
        assert outcome(result, model) == outcome(expected, expected_model)

    def test_observers_see_the_synced_model(self):
        seen = {"live": [], "tables": []}

        def watcher(label):
            def observe(index, step, model):
                seen[label].append((index, step, model.snapshot(),
                                    model.configuration(),
                                    model.is_accepting()))
            return observe

        make = deployed_chain
        reference_simulate(make(), RandomPolicy(seed=4), 25,
                           observers=[watcher("live")])
        simulate_model(make(), RandomPolicy(seed=4), 25,
                       observers=[watcher("tables")])
        assert len(seen["tables"]) == 25
        assert seen["tables"] == seen["live"]

    def test_replay_divergence_keeps_the_last_committed_state(self):
        def run(simulate):
            model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
            policy = ReplayPolicy([{"a"}, {"b"}, {"b"}])
            with pytest.raises(EngineError) as caught:
                simulate(model, policy, 5)
            return str(caught.value), model.snapshot()

        message, snapshot = run(simulate_model)
        assert "replay diverged at step 2" in message
        assert (message, snapshot) == run(reference_simulate)

    def test_unacceptable_callback_step_keeps_the_last_committed_state(self):
        def run(simulate):
            model = deployed_chain()
            policy = CallbackPolicy(
                lambda candidates, index: candidates[0] if index < 3
                else frozenset({"a0.stop"}) | candidates[0])
            with pytest.raises(EngineError) as caught:
                simulate(model, policy, 10)
            return str(caught.value), model.snapshot()

        message, snapshot = run(simulate_model)
        assert "is not acceptable in the current configuration" in message
        assert (message, snapshot) == run(reference_simulate)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_four_method_runtime(self, policy):
        # clone tokens compare by identity: compare the configurations
        expected_model = mod_three()
        expected = reference_simulate(expected_model,
                                      POLICIES[policy](mod_three), 30)
        model = mod_three()
        result = simulate_model(model, POLICIES[policy](mod_three), 30)
        assert outcome(result, model)[:5] \
            == outcome(expected, expected_model)[:5]
        assert model.configuration() == expected_model.configuration()

    def test_cold_kernel_fills_tables_that_explore_reuses(self):
        model = deployed_chain()
        result = simulate_model(model.clone(), RandomPolicy(seed=2), 6)
        tables = model.kernel.tables
        assert len(tables) == len(model.constraints)
        simulated = model.kernel.cache_sizes()["local_states"]
        assert simulated <= (result.steps_run + 1) * len(tables)
        assert_same(model)
        assert model.kernel.tables is tables
        assert model.kernel.cache_sizes()["local_states"] > simulated


#: the most table states one model's agreement walk visits
WALK_STATES = 50


def walked_models():
    models = dict(CORPUS)
    models.update({
        "deployed-chain": deployed_chain,
        "unbounded": unbounded_precedes,
        "watchdog": watchdog,
        "pam-mono": lambda: build_configuration("mono"),
        "mod3": mod_three,
    })
    return models


class TestLiveQueriesMatchTables:
    """The live model's queries are the reference the tables answer for:
    at every table state a breadth-first walk reaches, a live clone
    restored to that state must answer each query as the view does."""

    @pytest.mark.parametrize("name", sorted(walked_models()))
    def test_query_by_query(self, name):
        model = walked_models()[name]()
        view = model.kernel.table_view(model)
        live = model.clone()
        events = list(model.events)
        prefixes = [frozenset(events[:end]) for end in range(len(events) + 1)]
        seen = {view.snapshot()}
        queue = [view.snapshot()]
        while queue:
            state = queue.pop(0)
            view.restore(state)
            live.restore(view.model_snapshot())
            assert live.configuration() == view.configuration()
            steps = view.acceptable_steps(include_empty=True)
            assert live.acceptable_steps(include_empty=True) == steps
            assert live.acceptable_steps() == view.acceptable_steps()
            assert live.max_step() == view.max_step()
            assert live.count_acceptable_steps() == len(steps)
            for step in steps:
                assert live.is_acceptable(step) and view.is_acceptable(step)
            for step in prefixes:
                assert live.is_acceptable(step) == view.is_acceptable(step)
            for step in steps:
                view.restore(state)
                view.advance(step, check=False)
                successor = view.snapshot()
                if successor not in seen and len(seen) < WALK_STATES:
                    seen.add(successor)
                    queue.append(successor)


#: the enumeration tests' events: the formulas' variables and two free
#: events no formula reads
EVENTS = NAMES + ["u", "v"]


def enumerated(bdd, node, include_empty):
    """Every step satisfying *node*, by :meth:`Bdd.iter_models`, in the
    engine's step order."""
    steps = [frozenset(name for name, value in model.items() if value)
             for model in bdd.iter_models(node, EVENTS)]
    steps = [step for step in steps if step or include_empty]
    return tuple(sorted(steps, key=lambda step: (len(step), sorted(step))))


class TestStepEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(expr=exprs(), include_empty=st.booleans(),
           order=st.permutations(EVENTS + ["#s0"]))
    def test_steps_of_matches_iter_models(self, expr, include_empty,
                                          order):
        # the manager's level order need not be the event order, and may
        # hold levels that are not events (a compiled system's state bits)
        bdd = Bdd(order=order)
        stepper = TableStepper(bdd, EVENTS, [], [])
        node = bdd.from_expr(expr)
        assert stepper.steps_of(node, include_empty) \
            == enumerated(bdd, node, include_empty)

    def test_support_outside_the_events_raises(self):
        bdd = Bdd(order=EVENTS + ["#s0"])
        stepper = TableStepper(bdd, EVENTS, [], [])
        with pytest.raises(ValueError, match="#s0"):
            stepper.steps_of(bdd.apply_and(bdd.var("p"), bdd.var("#s0")))

    @settings(max_examples=60, deadline=None)
    @given(formulas=st.lists(exprs(max_leaves=4), min_size=1, max_size=7),
           data=st.data())
    def test_balanced_conjunction_is_the_fold(self, formulas, data):
        bdd = Bdd(order=EVENTS)
        nodes = tuple(bdd.from_expr(formula) for formula in formulas)
        order = data.draw(st.permutations(range(len(nodes))))
        stepper = TableStepper(bdd, EVENTS, [], order)
        assert stepper.conjunction(nodes) == bdd.conjoin(nodes)
        assert stepper.conjunction(nodes) == bdd.conjoin(nodes)  # memo

    def test_no_constraints_accept_every_step(self):
        bdd = Bdd(order=EVENTS)
        assert TableStepper(bdd, EVENTS, [], []).conjunction(()) == bdd.one


def random_formulas(count, seed=29):
    """*count* random formulas over the enumeration tests' variables."""
    rng = random.Random(seed)

    def draw(depth):
        if depth == 0 or rng.random() < 0.25:
            return Var(rng.choice(NAMES))
        kind = rng.randrange(3)
        if kind == 0:
            return Not(draw(depth - 1))
        pair = draw(depth - 1), draw(depth - 1)
        return And(*pair) if kind == 1 else Or(*pair)

    return [draw(4) for _ in range(count)]


class TestMemoBounds:
    """More distinct steps, conjunctions and analyses than each memo
    holds, under a tiny cap on every row of the three memo tables: the
    answers stay the brute-force enumerator's and the uncapped checks',
    every memo stays within its cap, and ``SymbolicKernel.clear()``
    empties every row of the kernel and its manager."""

    #: one cap per row of ``Bdd.MEMOS``, ``SymbolicKernel.MEMOS`` and
    #: ``TransitionSystem.MEMOS`` (the last two share the stepping rows)
    CAPS = {"ite": 40, "expr": 11, "exists": 9, "and_exists": 9,
            "max_model": 7, "not": 6, "conjunctions": 4, "steps": 4,
            "max_steps": 4, "touches": 3, "models": 5,
            "transition_systems": 1, "explored_spaces": 1, "schedules": 1,
            "reachable_sets": 1, "analyses": 1}
    SYSTEMS = ("chain3-cap2", "forkjoin")

    def test_memos_stay_within_their_caps(self, monkeypatch):
        def battery(model):
            return [check(model, text, strategy="symbolic").to_doc()
                    for text in battery_texts(model)]

        expected = {name: battery(CORPUS[name]()) for name in self.SYSTEMS}
        tables = (Bdd.MEMOS, SymbolicKernel.MEMOS, TransitionSystem.MEMOS)
        assert set(self.CAPS) == {name for table in tables for name in table}
        for table in tables:
            for name, row in table.items():
                monkeypatch.setattr(row, "cap", self.CAPS[name])
        peaks = dict.fromkeys(self.CAPS, 0)

        def assert_within(sizes):
            for name in peaks.keys() & sizes.keys():
                assert sizes[name] <= self.CAPS[name], name
                peaks[name] = max(peaks[name], sizes[name])

        # stateless tables that accept every step, two events each
        model = ExecutionModel(EVENTS, [
            FormulaRuntime(f"free{index}", TRUE, EVENTS[index:index + 2])
            for index in range(0, len(EVENTS), 2)])
        kernel = model.kernel
        bdd = kernel.bdd
        view = kernel.table_view(model)
        start = view.snapshot()
        kernel.transition_system(model)
        for index, formula in enumerate(random_formulas(60)):
            node = bdd.from_expr(formula)
            models = [frozenset(name for name, value in assignment.items()
                                if value)
                      for assignment in iter_models(formula, EVENTS)]
            assert kernel.steps_of(node, include_empty=True) == tuple(
                sorted(models, key=lambda step: (len(step), sorted(step))))
            step = kernel.max_step_of(node)
            largest = max(map(len, models), default=0)
            assert (step is None) == (largest == 0)
            assert step is None or (step in models and len(step) == largest)
            quantified = EVENTS[index % 3:index % 3 + 2]
            bdd.exists(node, quantified)
            bdd.and_exists(node, bdd.var(EVENTS[-1]), quantified)
            view.restore(start)
            view.advance(frozenset(event for bit, event in enumerate(EVENTS)
                                   if (index + 1) >> bit & 1))
            assert view.snapshot() == start
            kernel.explored_space(model, max_states=1 + index % 3)
            # the manager trims its memos at its trim points, conjoin
            # among them
            bdd.conjoin([node, bdd.from_expr(Not(formula))])
            assert_within(kernel.cache_sizes())
            assert_within(bdd.cache_sizes())
        # compiled systems: a symbolic battery with witnesses answers as
        # it does uncapped; a fixpoint trims nothing, so the sizes are
        # read after a trim point
        for name in self.SYSTEMS:
            capped = CORPUS[name]()
            assert battery(capped) == expected[name]
            system = capped.kernel.transition_system(capped)
            system.to_statespace(max_states=20, maximal_only=True)
            system.bdd.conjoin([])
            assert_within(system.cache_sizes())
            assert_within(system.bdd.cache_sizes())
        assert all(peaks.values()), peaks
        kernel.clear()
        sizes = {**kernel.cache_sizes(), **bdd.cache_sizes()}
        assert not any(sizes[name] for name in peaks if name in sizes), sizes

    def test_fixpoint_safe_points_trim_the_manager(self, monkeypatch):
        """``_maybe_reorder`` is the manager's trim point inside a
        fixpoint: right after each call every ``Bdd.MEMOS`` row is at or
        under its cap, and the symbolic documents equal uncapped ones."""
        def battery(model):
            return [check(model, text, strategy="symbolic").to_doc()
                    for text in battery_texts(model)]

        expected = battery(CORPUS["chain3-cap2"]())
        for row in Bdd.MEMOS.values():
            monkeypatch.setattr(row, "cap", 64)
        readings = []
        original = TransitionSystem._maybe_reorder

        def spy(system, *in_flight):
            original(system, *in_flight)
            readings.append(system.bdd.cache_sizes())

        monkeypatch.setattr(TransitionSystem, "_maybe_reorder", spy)
        assert battery(CORPUS["chain3-cap2"]()) == expected
        assert readings
        for sizes in readings:
            assert max(sizes.values()) <= 64, sizes

    def test_every_cache_attribute_is_a_row(self):
        """Warmed by an explore, a simulation and a symbolic battery with
        witnesses, a kernel, a compiled system and their managers hold
        no ``*_cache`` attribute that their ``MEMOS`` table does not
        list, and every row they list is held."""
        model = CORPUS["forkjoin-cap2"]()
        explore(model)
        simulate_model(model.clone(), AsapPolicy(), 20)
        for text in battery_texts(model):
            check(model, text, strategy="symbolic")
        kernel = model.kernel
        system = kernel.transition_system(model)
        for owner in kernel, kernel.bdd, system, system.bdd:
            held = set(vars(owner))
            listed = {row.attr for row in owner.MEMOS.values()}
            assert {name for name in held if name.endswith("_cache")} \
                <= listed, type(owner).__name__
            assert listed <= held, type(owner).__name__
