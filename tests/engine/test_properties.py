"""Property checking over explored state spaces: CTL state questions
through ``check_space`` and the one step-level question,
``check_mutual_exclusion`` — including the three-valued verdicts on
truncated and ``maximal_only`` spaces."""

import dataclasses
from collections import deque

import pytest

from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.engine import ExecutionModel, Verdict, check_space, explore
from repro.engine.analysis import check_mutual_exclusion
from repro.errors import EngineError
from repro.sdf import SdfBuilder, weave_sdf


def alternation_space():
    model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")])
    return explore(model)


def free_space():
    return explore(ExecutionModel(["a", "b"]))


def deadlock_space():
    model = ExecutionModel(
        ["a", "b"], [PrecedesRuntime("a", "b"), PrecedesRuntime("b", "a")])
    return explore(model)


def alternation_with_free_space():
    """a and b alternate; c is free, so a c-only step loops forever."""
    model = ExecutionModel(["a", "b", "c"], [AlternatesRuntime("a", "b")])
    return explore(model)


def verdict(space, text):
    return check_space(space, text).verdict


class TestPredicates:
    def test_occurs(self):
        # the CTL atom occurs(e) holds where e is enabled, not taken
        space = alternation_space()
        assert verdict(space, "occurs(a)") is Verdict.HOLDS
        assert verdict(space, "occurs(b)") is Verdict.FAILS
        assert verdict(space, "AX occurs(b)") is Verdict.HOLDS

    def test_together(self):
        # the step-level "two of these in one step": {a, c} and {b, c}
        # are steps of this model, {a, b} never is
        space = alternation_with_free_space()
        assert frozenset({"a", "c"}) in space.distinct_steps()
        assert check_mutual_exclusion(space, ["a", "b"]) is Verdict.HOLDS
        assert check_mutual_exclusion(space, ["a", "c"]) is Verdict.FAILS
        assert check_mutual_exclusion(space, ["a", "b", "c"]) \
            is Verdict.FAILS
        # one event alone can never be taken twice in a step
        assert check_mutual_exclusion(space, ["c"]) is Verdict.HOLDS


class TestSafety:
    def test_alternation_never_simultaneous(self):
        space = alternation_space()
        assert check_mutual_exclusion(space, ["a", "b"]) is Verdict.HOLDS
        assert verdict(space, "AG !occurs(a)") is Verdict.FAILS

    def test_always_singleton_steps(self):
        # no step takes two events of the whole alphabet: every step of
        # the alternation is a singleton; the free model's {a, b} is not
        space = alternation_space()
        assert check_mutual_exclusion(space, space.events) is Verdict.HOLDS
        free = free_space()
        assert check_mutual_exclusion(free, free.events) is Verdict.FAILS

    def test_free_model_violates_exclusion(self):
        space = free_space()
        assert check_mutual_exclusion(space, ["a", "b"]) is Verdict.FAILS


class TestReachability:
    def test_eventually_reachable(self):
        space = alternation_space()
        assert verdict(space, "EF occurs(b)") is Verdict.HOLDS
        assert verdict(space, "EF (occurs(a) & occurs(b))") is Verdict.FAILS

    def test_witness_is_shortest(self):
        result = check_space(alternation_space(), "EF occurs(b)")
        assert result.witness_steps == [frozenset({"a"})]

    def test_counterexample_is_shortest(self):
        # one {a} step reaches a state where b is enabled
        result = check_space(alternation_space(), "AG !occurs(b)")
        assert result.verdict is Verdict.FAILS
        assert result.witness_kind == "counterexample"
        assert result.witness_steps == [frozenset({"a"})]
        assert result.witness().steps == [frozenset({"a"})]

    def test_counterexample_none_when_safe(self):
        result = check_space(alternation_space(),
                             "AG !(occurs(a) & occurs(b))")
        assert result.verdict is Verdict.HOLDS
        assert result.witness_steps is None
        assert result.witness() is None


class TestInevitability:
    def test_alternation_b_inevitable(self):
        # every run is a b a b ...: both are enabled again and again
        space = alternation_space()
        assert verdict(space, "AF occurs(b)") is Verdict.HOLDS
        assert verdict(space, "AF occurs(a)") is Verdict.HOLDS

    def test_free_model_nothing_inevitable(self):
        # the free model loops on one state forever: a never stops being
        # enabled and no deadlock is ever forced
        space = free_space()
        assert verdict(space, "AF !occurs(a)") is Verdict.FAILS
        assert verdict(space, "AF deadlock") is Verdict.FAILS

    def test_deadlock_breaks_inevitability(self):
        # a run ending in a deadlock is a maximal run: the empty run of
        # the deadlocked initial state avoids a
        result = check_space(deadlock_space(), "AF occurs(a)")
        assert result.verdict is Verdict.FAILS
        assert result.witness_steps == []

    def test_truncated_space_rejected(self):
        # the sink is only enabled beyond the first 3 states: the cut-off
        # region must not decide inevitability either way
        partial = check_space(pipeline_space(max_states=3),
                              "AF occurs(sink.start)")
        assert partial.verdict is Verdict.UNKNOWN
        assert "truncated" in partial.reason
        with pytest.raises(ValueError, match="UNKNOWN"):
            assert partial.verdict
        assert verdict(pipeline_space(max_states=10_000),
                       "AF occurs(sink.start)") is Verdict.HOLDS


class TestLeadsTo:
    def test_alternation_a_leads_to_b(self):
        space = alternation_space()
        assert verdict(space, "occurs(a) leads_to occurs(b)") \
            is Verdict.HOLDS
        assert verdict(space, "occurs(b) leads_to occurs(a)") \
            is Verdict.HOLDS

    def test_free_model_no_response(self):
        # b stays enabled forever and nothing ever deadlocks
        space = free_space()
        assert verdict(space, "occurs(a) leads_to !occurs(b)") \
            is Verdict.FAILS
        assert verdict(space, "occurs(a) leads_to deadlock") \
            is Verdict.FAILS

    def test_sdf_request_response(self):
        # producer firing leads to consumer firing in a bounded pipeline
        builder = SdfBuilder("duo")
        builder.agent("p")
        builder.agent("c")
        builder.connect("p", "c", capacity=2)
        model, _app = builder.build()
        space = explore(weave_sdf(model).execution_model)
        assert verdict(space, "occurs(p.start) leads_to occurs(c.start)") \
            is Verdict.HOLDS


class TestVerdict:
    def test_truthiness(self):
        assert Verdict.HOLDS
        assert not Verdict.FAILS
        assert Verdict.HOLDS.definitive and Verdict.FAILS.definitive
        assert not Verdict.UNKNOWN.definitive

    def test_unknown_refuses_boolean_coercion(self):
        with pytest.raises(ValueError, match="UNKNOWN"):
            bool(Verdict.UNKNOWN)

    def test_str_and_value(self):
        assert str(Verdict.UNKNOWN) == "unknown"
        assert Verdict.HOLDS.value == "holds"

    def test_defined_once_in_ctl(self):
        # one verdict type answers the CTL checker and the step-level
        # exclusion check alike
        from repro.engine import analysis, ctl

        assert Verdict is ctl.Verdict is analysis.Verdict
        assert isinstance(check_mutual_exclusion(free_space(), ["a", "b"]),
                          ctl.Verdict)
        assert isinstance(verdict(free_space(), "AG occurs(a)"), ctl.Verdict)


def truncated_space():
    model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
    space = explore(model, max_states=5)
    assert space.truncated
    return space


def pipeline_space(max_states):
    builder = SdfBuilder("pipe")
    for name in ("src", "mid", "sink"):
        builder.agent(name)
    builder.connect("src", "mid", capacity=2)
    builder.connect("mid", "sink", capacity=2)
    model, _app = builder.build()
    return explore(weave_sdf(model).execution_model, max_states=max_states)


class TestTruncationSoundness:
    """No definitive verdict from a partial search unless the explored
    region alone proves it."""

    def test_always_unknown_when_unrefuted(self):
        # no deadlock in 5 states does NOT verify deadlock freedom
        assert verdict(truncated_space(), "AG !deadlock") is Verdict.UNKNOWN

    def test_never_unknown_when_unwitnessed(self):
        # "never a deadlock" phrased as !EF: just as undecided
        assert verdict(truncated_space(), "!EF deadlock") is Verdict.UNKNOWN

    def test_always_refuted_is_definitive(self):
        # a violating state inside the explored region refutes soundly
        assert verdict(truncated_space(), "AG occurs(b)") is Verdict.FAILS

    def test_never_refuted_is_definitive(self):
        assert verdict(truncated_space(), "AG !occurs(a)") is Verdict.FAILS

    def test_eventually_witnessed_is_definitive(self):
        assert verdict(truncated_space(), "EF occurs(a)") is Verdict.HOLDS

    def test_eventually_unknown_when_unwitnessed(self):
        assert verdict(truncated_space(), "EF deadlock") is Verdict.UNKNOWN

    def test_assert_idiom_errors_instead_of_passing(self):
        # `assert` on an UNKNOWN verdict raises instead of "verifying"
        with pytest.raises(ValueError):
            assert verdict(truncated_space(), "AG !deadlock")

    def test_leads_to_still_rejects_truncation(self):
        # whether b answers a beyond the frontier is unknown
        result = check_space(truncated_space(), "occurs(a) leads_to occurs(b)")
        assert result.verdict is Verdict.UNKNOWN
        assert not result.definitive
        assert result.witness_steps is None

    def test_complete_space_stays_definitive(self):
        space = alternation_space()
        assert check_mutual_exclusion(space, ["a", "b"]) is Verdict.HOLDS
        assert verdict(space, "AG !occurs(a)") is Verdict.FAILS
        assert verdict(space, "EF occurs(b)") is Verdict.HOLDS

    def test_exclusion_unknown_on_truncated_pipeline(self):
        # src and sink share no place, so they may start together — but
        # not within the first 3 states; the cut-off region must not
        # "verify" their exclusion
        partial = pipeline_space(max_states=3)
        assert partial.truncated
        assert check_mutual_exclusion(
            partial, ["src.start", "sink.start"]) is Verdict.UNKNOWN
        complete = pipeline_space(max_states=10_000)
        assert not complete.truncated and complete.n_states == 9
        assert check_mutual_exclusion(
            complete, ["src.start", "sink.start"]) is Verdict.FAILS

    def test_exclusion_refuted_on_truncated_space(self):
        # a violating step inside the explored region is a real step
        model = ExecutionModel(["a", "b", "c"], [PrecedesRuntime("a", "c")])
        space = explore(model, max_states=2)
        assert space.truncated
        assert check_mutual_exclusion(space, ["a", "b"]) is Verdict.FAILS

    def test_maximal_only_space_is_partial_too(self):
        # the ASAP reduction drops non-maximal steps, so the absence of
        # a violation on it verifies nothing, and CTL refuses it outright
        space = explore(ExecutionModel(["a", "b"],
                                       [AlternatesRuntime("a", "b")]),
                        maximal_only=True)
        assert space.maximal_only and not space.truncated
        assert check_mutual_exclusion(space, ["a", "b"]) is Verdict.UNKNOWN
        with pytest.raises(EngineError, match="maximal_only"):
            check_space(space, "AG !deadlock")

    def test_exclusion_refuted_on_maximal_only_space(self):
        # the ASAP reduction keeps the free model's {a, b} step, and an
        # explored step is a real one: the refutation stays definitive
        space = explore(ExecutionModel(["a", "b"]), maximal_only=True)
        assert space.distinct_steps() == {frozenset({"a", "b"})}
        assert check_mutual_exclusion(space, ["a", "b"]) is Verdict.FAILS


class TestEdgeCases:
    def test_cycle_through_initial_state(self):
        # a-b alternation cycles back through the initial state; the EG
        # stripping behind AF must see that cycle
        space = alternation_space()
        assert verdict(space, "AF occurs(a)") is Verdict.HOLDS
        assert verdict(space, "AF false") is Verdict.FAILS

    def test_self_loop_on_initial(self):
        space = free_space()  # {a}, {b}, {a,b} all loop on one state
        assert space.n_states == 1
        assert verdict(space, "AG (occurs(a) & occurs(b))") is Verdict.HOLDS
        assert verdict(space, "AF !occurs(a)") is Verdict.FAILS
        assert verdict(space, "occurs(a) leads_to !occurs(b)") \
            is Verdict.FAILS

    def test_single_state_empty_step_set(self):
        # mutual precedence deadlocks immediately: one state, no steps
        space = deadlock_space()
        assert space.n_states == 1
        assert space.n_transitions == 0
        assert check_mutual_exclusion(space, ["a", "b"]) is Verdict.HOLDS
        assert verdict(space, "EF occurs(a)") is Verdict.FAILS
        assert verdict(space, "AF occurs(a)") is Verdict.FAILS  # deadlock
        assert verdict(space, "occurs(a) leads_to occurs(b)") \
            is Verdict.HOLDS

    def test_frontier_node_not_a_deadlock(self):
        # truncation frontier nodes have no outgoing edges but are NOT
        # deadlocks
        space = truncated_space()
        assert space.frontier
        assert not set(space.deadlocks()) & space.frontier

    def test_counterexample_on_deadlocked_space(self):
        # nothing is reachable from the deadlock: EF has no witness, and
        # the AF counterexample is the empty run
        space = deadlock_space()
        reach = check_space(space, "EF occurs(a)")
        assert reach.verdict is Verdict.FAILS
        assert reach.witness_steps is None
        avoid = check_space(space, "AF occurs(a)")
        assert avoid.witness_kind == "counterexample"
        assert avoid.witness_steps == []


def reachable_states(space):
    """Every state reachable from the initial one (breadth-first over
    ``space.succ``)."""
    seen = {space.initial}
    queue = deque(seen)
    while queue:
        for _step, successor in space.succ[queue.popleft()]:
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return seen


def naive_leads_to(space, trigger, target):
    """The per-source oracle for ``trigger leads_to target``: re-root
    the space at every reachable state and check ``AF target`` from
    each one where *trigger* holds."""
    for source in sorted(reachable_states(space)):
        rooted = dataclasses.replace(space, initial=source,
                                     name=f"{space.name}@{source}")
        if verdict(rooted, trigger) is Verdict.FAILS:
            continue
        if verdict(rooted, f"AF ({target})") is Verdict.FAILS:
            return Verdict.FAILS
    return Verdict.HOLDS


class TestLeadsToSharedPass:
    """CTL ``leads_to`` — one backward pass over the whole space — must
    agree with the per-source ``AF`` rerun."""

    def corpus(self):
        spaces = [alternation_space(), free_space(), deadlock_space(),
                  alternation_with_free_space()]
        builder = SdfBuilder("trio")
        for name in ("x", "y", "z"):
            builder.agent(name)
        builder.connect("x", "y", capacity=2)
        builder.connect("y", "z", capacity=1)
        model, _app = builder.build()
        spaces.append(explore(weave_sdf(model).execution_model))
        model = ExecutionModel(
            ["a", "b", "c"],
            [AlternatesRuntime("a", "b"), PrecedesRuntime("b", "c", bound=2)])
        spaces.append(explore(model))
        return spaces

    def test_identical_verdicts_on_corpus(self):
        checked = 0
        verdicts = set()
        for space in self.corpus():
            events = sorted(space.events)
            pairs = [(events[0], events[-1]), (events[-1], events[0]),
                     (events[0], events[0])]
            if len(events) > 2:
                pairs.append((events[1], events[2]))
            for trigger_event, target_event in pairs:
                trigger = f"occurs({trigger_event})"
                target = f"occurs({target_event})"
                expected = naive_leads_to(space, trigger, target)
                actual = verdict(space, f"{trigger} leads_to {target}")
                assert actual is expected, (
                    space.name, trigger_event, target_event)
                verdicts.add(actual)
                checked += 1
        assert checked >= 15
        assert verdicts == {Verdict.HOLDS, Verdict.FAILS}

    def test_trigger_into_trap_fails(self):
        # from the state enabling a, the c-only self-loop avoids ever
        # enabling b; the counterexample walks into that trap
        space = alternation_with_free_space()
        result = check_space(space, "occurs(a) leads_to occurs(b)")
        assert result.verdict is Verdict.FAILS
        assert result.witness_steps == [frozenset({"c"})]

    def test_no_trigger_holds_vacuously(self):
        # a and b are never enabled together, so even "false" answers
        space = alternation_space()
        assert verdict(space, "(occurs(a) & occurs(b)) leads_to false") \
            is Verdict.HOLDS


class TestDeploymentProperties:
    def test_mutex_as_safety_property(self):
        from repro.deployment import Allocation, Platform, deploy
        builder = SdfBuilder("pipe")
        builder.agent("x")
        builder.agent("y")
        builder.connect("x", "y", capacity=2)
        model, app = builder.build()
        platform = Platform("mono")
        platform.processor("cpu")
        result = deploy(model, app, platform,
                        Allocation({"x": "cpu", "y": "cpu"}))
        space = explore(result.execution_model)
        assert check_mutual_exclusion(space, ["x.start", "y.start"]) \
            is Verdict.HOLDS
