"""Tests for the unified temporal-property checker (repro.engine.ctl):
parser, explicit three-valued evaluation, symbolic fixpoint evaluation,
witness extraction and the check() front door."""

import pytest

from repro.ccsl import AlternatesRuntime, DelayedForRuntime, PrecedesRuntime
from repro.engine import ExecutionModel, explore
from repro.engine.ctl import (
    AG,
    AU,
    And,
    CheckResult,
    Deadlock,
    Implies,
    InState,
    LeadsTo,
    Not,
    Occurs,
    Or,
    TrueProp,
    VarCmp,
    Verdict,
    check,
    check_space,
    parse_property,
    replay_steps,
)
from repro.engine.equivalence import battery_texts
from repro.errors import EngineError, ParseError
from repro.sdf import SdfBuilder, weave_sdf
from tests.engine.test_symbolic_equivalence import CORPUS


def chain_model(length=4, capacity=2):
    builder = SdfBuilder(f"chain{length}c{capacity}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def alternation_model():
    return ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")],
                          name="alt")


def deadlocking_model():
    # a precedes b with bound 1 and b delayed after a by 3: the counter
    # fills, then nothing can fire
    return ExecutionModel(
        ["a", "b"],
        [PrecedesRuntime("a", "b", bound=1), DelayedForRuntime("b", "a", 3)],
        name="deadlocker")


class TestParser:
    ROUND_TRIPS = [
        "true", "false", "deadlock", "!deadlock",
        "occurs(a.start)",
        "AG !deadlock", "AF occurs(b)", "EX occurs(a)", "AX deadlock",
        "EG !occurs(b)", "EF deadlock",
        "A[occurs(a) U occurs(b)]", "E[!occurs(a) U deadlock]",
        "occurs(a) leads_to occurs(b)",
        "AG (occurs(a) -> AF occurs(b))",
        "occurs(a) & occurs(b) | !occurs(c)",
        "var(P@x.size) <= 2", "var(P@x.size) != 0",
        "state(Alternates(a, b), 1)",
        "state(X, Idle) leads_to state(X, Busy)",
        "AG (AF occurs(a) & EF (occurs(b) | deadlock))",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        prop = parse_property(text)
        assert parse_property(prop.to_text()) == prop

    def test_ast_shapes(self):
        assert parse_property("AG !deadlock") == AG(Not(Deadlock()))
        assert parse_property("true") == TrueProp()
        assert parse_property("occurs(a) leads_to occurs(b)") == LeadsTo(
            Occurs("a"), Occurs("b"))
        assert parse_property("A[occurs(a) U occurs(b)]") == AU(
            Occurs("a"), Occurs("b"))
        assert parse_property("occurs(a) -> occurs(b) -> occurs(c)") == \
            Implies(Occurs("a"), Implies(Occurs("b"), Occurs("c")))

    def test_precedence(self):
        prop = parse_property("occurs(a) & occurs(b) | occurs(c)")
        assert prop == Or(And(Occurs("a"), Occurs("b")), Occurs("c"))
        prop = parse_property("occurs(a) | occurs(b) -> occurs(c)")
        assert prop == Implies(Or(Occurs("a"), Occurs("b")), Occurs("c"))
        prop = parse_property("AG occurs(a) -> occurs(b)")
        assert prop == Implies(AG(Occurs("a")), Occurs("b"))

    def test_var_comparison(self):
        prop = parse_property("var(L.size) >= 1")
        assert prop == VarCmp("L.size", ">=", 1)
        assert prop.holds_for(2) and not prop.holds_for(0)

    @pytest.mark.parametrize("bad", [
        "", "AG", "occurs()", "occurs(a", "AG deadlock extra",
        "A[occurs(a) occurs(b)]", "var(x.y) ?? 2", "var(x.y) <= zz",
        "state(onlylabel)", "unknownword", "(occurs(a)",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse_property(bad)

    def test_nested_parens_in_labels(self):
        prop = parse_property("state(Alternates(a, b), 0)")
        assert prop == InState("Alternates(a, b)", "0")
        prop = parse_property("var(Precedes(a, b).count) < 3")
        assert prop == VarCmp("Precedes(a, b).count", "<", 3)


class TestExplicitBackend:
    def test_basic_verdicts(self):
        space = explore(alternation_model())
        assert check_space(space, "AG !deadlock").verdict is Verdict.HOLDS
        assert check_space(space, "EF occurs(b)").verdict is Verdict.HOLDS
        assert check_space(space, "AF occurs(b)").verdict is Verdict.HOLDS
        assert check_space(space, "AG occurs(a)").verdict is Verdict.FAILS
        assert check_space(space, "EF deadlock").verdict is Verdict.FAILS

    def test_until_and_leads_to(self):
        space = explore(chain_model())
        assert check_space(
            space, "A[!occurs(a3.start) U occurs(a0.start)]"
        ).verdict is Verdict.HOLDS
        assert check_space(
            space, "occurs(a0.start) leads_to occurs(a3.start)"
        ).verdict is Verdict.HOLDS

    def test_boolean_structure(self):
        space = explore(alternation_model())
        assert check_space(space, "true").verdict is Verdict.HOLDS
        assert check_space(space, "false").verdict is Verdict.FAILS
        assert check_space(
            space, "occurs(a) & !occurs(b)").verdict is Verdict.HOLDS
        assert check_space(
            space, "occurs(a) -> AF occurs(b)").verdict is Verdict.HOLDS

    def test_deadlock_model(self):
        space = explore(deadlocking_model())
        assert check_space(space, "EF deadlock").verdict is Verdict.HOLDS
        assert check_space(space, "AF deadlock").verdict is Verdict.HOLDS
        result = check_space(space, "AG !deadlock")
        assert result.verdict is Verdict.FAILS
        assert result.witness_kind == "counterexample"
        assert replay_steps(deadlocking_model(), result.witness_steps)

    def test_truncated_space_three_valued(self):
        model = chain_model(8)
        space = explore(model, max_states=50)
        assert space.truncated
        # unprovable from a prefix: UNKNOWN, with a reason
        result = check_space(space, "AG !deadlock")
        assert result.verdict is Verdict.UNKNOWN
        assert result.truncated
        assert "truncated" in result.reason
        # provable from the prefix: definitive either way
        assert check_space(
            space, "EF occurs(a1.start)").verdict is Verdict.HOLDS
        assert check_space(
            space, "AG occurs(a0.start)").verdict is Verdict.FAILS

    def test_frontier_is_not_a_deadlock(self):
        model = chain_model(8)
        space = explore(model, max_states=50)
        assert space.frontier
        # the explored prefix alone cannot prove a deadlock exists —
        # frontier nodes without successors must not masquerade as one
        assert check_space(space, "EF deadlock").verdict is Verdict.UNKNOWN

    def test_state_and_var_atoms(self):
        model = alternation_model()
        label = model.constraints[0].label
        space = explore(model)
        assert check_space(
            space, f"EF state({label}, 1)").verdict is Verdict.HOLDS
        assert check_space(
            space, f"AG state({label}, 0)").verdict is Verdict.FAILS

    def test_key_atom_errors(self):
        space = explore(alternation_model())
        with pytest.raises(EngineError, match="known labels"):
            check_space(space, "EF state(nosuch, 1)")
        with pytest.raises(EngineError, match="must be"):
            check_space(space, "AG var(nodot) <= 1")

    @pytest.mark.parametrize("strategy", ["explicit", "symbolic"])
    def test_typoed_event_errors_instead_of_verdict(self, strategy):
        # a misspelt event must never yield a definitive verdict
        with pytest.raises(EngineError, match="unknown event"):
            check(alternation_model(), "AG !occurs(a.strt)",
                  strategy=strategy)

    @pytest.mark.parametrize("strategy", ["explicit", "symbolic"])
    def test_typoed_state_value_carries_a_note(self, strategy):
        # an unmatched state() value keeps the sound verdict but flags
        # the possible typo in the reason
        model = alternation_model()
        label = model.constraints[0].label
        result = check(model, f"EF state({label}, 7)", strategy=strategy)
        assert result.verdict is Verdict.FAILS
        assert "possible typo" in result.reason
        assert "'7'" in result.reason
        clean = check(model, f"EF state({label}, 1)", strategy=strategy)
        assert "typo" not in clean.reason

    def test_maximal_only_space_rejected(self):
        # the ASAP reduction under-approximates branching — a verdict
        # on it would be the unsound-partial-search bug all over again
        space = explore(chain_model(3), maximal_only=True)
        assert space.maximal_only
        with pytest.raises(EngineError, match="maximal_only"):
            check_space(space, "EF deadlock")
        # the flag survives serialization, so reloaded spaces are
        # rejected too; full spaces keep their historical byte layout
        from repro.engine.statespace import StateSpace
        reloaded = StateSpace.from_json(space.to_json())
        assert reloaded.maximal_only
        full = explore(chain_model(3))
        assert '"maximal_only"' not in full.to_json()

    def test_json_roundtripped_space_refuses_key_atoms(self):
        from repro.engine.statespace import StateSpace
        space = explore(alternation_model())
        reloaded = StateSpace.from_json(space.to_json())
        with pytest.raises(EngineError, match="configuration keys"):
            check_space(reloaded, "EF state(x, 1)")
        # step atoms still work — they only need the edges
        assert check_space(
            reloaded, "AG !deadlock").verdict is Verdict.HOLDS


class TestSymbolicBackend:
    PROPS = [
        "AG !deadlock", "EF deadlock", "EF occurs(a3.start)",
        "AF occurs(a3.start)", "AG occurs(a0.start)",
        "EG !occurs(a3.start)", "EX occurs(a0.start)",
        "AX !deadlock", "E[!occurs(a1.start) U occurs(a0.stop)]",
        "A[!occurs(a3.start) U occurs(a0.start)]",
        "occurs(a0.start) leads_to occurs(a3.start)",
        "AG var(PlaceLimitation@Place:a0_a1.size) <= 2",
        "EF var(PlaceLimitation@Place:a0_a1.size) == 2",
    ]

    @pytest.mark.parametrize("text", PROPS)
    def test_agrees_with_explicit(self, text):
        model = chain_model()
        explicit = check(model, text, strategy="explicit")
        symbolic = check(model, text, strategy="symbolic")
        assert explicit.verdict is symbolic.verdict
        assert explicit.witness_steps == symbolic.witness_steps
        if symbolic.witness_steps is not None:
            assert replay_steps(model, symbolic.witness_steps)

    def test_deadlock_model_agrees(self):
        model = deadlocking_model()
        for text in ("AG !deadlock", "EF deadlock", "AF deadlock",
                     "EG occurs(a)"):
            explicit = check(model, text, strategy="explicit")
            symbolic = check(model, text, strategy="symbolic")
            assert explicit.verdict is symbolic.verdict, text
            assert explicit.witness_steps == symbolic.witness_steps, text

    def test_definitive_beyond_explicit_budget(self):
        model = chain_model(6)
        space = explore(model, max_states=30)
        assert space.truncated
        assert check_space(space, "AG !deadlock").verdict \
            is Verdict.UNKNOWN
        symbolic = check(model, "AG !deadlock", strategy="symbolic")
        assert symbolic.verdict is Verdict.HOLDS
        assert symbolic.states == 3 ** 5
        assert not symbolic.truncated

    def test_include_empty(self):
        model = chain_model(3)
        for text in ("AG !deadlock", "AF occurs(a0.isExecuting)"):
            explicit = check(model, text, strategy="explicit",
                             include_empty=True)
            symbolic = check(model, text, strategy="symbolic",
                             include_empty=True)
            assert explicit.verdict is symbolic.verdict, text
            assert explicit.witness_steps == symbolic.witness_steps, text


class TestAutoStrategy:
    def test_small_model_stays_explicit(self):
        result = check(alternation_model(), "AG !deadlock",
                       strategy="auto")
        assert result.strategy == "explicit"
        assert result.verdict is Verdict.HOLDS

    def test_unknown_escalates_to_symbolic(self):
        # the budget truncates the explicit check: auto resolves the
        # UNKNOWN symbolically
        model = ExecutionModel(
            ["a", "b"],
            [PrecedesRuntime("a", "b", bound=6),
             DelayedForRuntime("b", "a", 4)],
            name="small-deep")
        result = check(model, "AG !deadlock", strategy="auto", max_states=3)
        assert result.strategy == "symbolic"
        assert result.verdict.definitive

    def test_unencodable_falls_back_to_explicit(self):
        model = ExecutionModel(
            ["a", "b"], [PrecedesRuntime("a", "b")], name="unbounded")
        result = check(model, "EF occurs(b)", strategy="auto",
                       max_states=40)
        assert result.strategy == "explicit"
        assert result.verdict is Verdict.HOLDS  # witnessed despite budget

    @pytest.mark.parametrize("max_states", [10_000, 3])
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_explicit_document_unless_unknown(self, name, max_states):
        # one route whatever the model's size: the explicit document
        # when it is definitive, otherwise the symbolic one
        make = CORPUS[name]
        explicit_model, auto_model, symbolic_model = make(), make(), make()
        for text in battery_texts(explicit_model):
            explicit = check(explicit_model, text, strategy="explicit",
                             max_states=max_states).to_doc()
            auto = check(auto_model, text, strategy="auto",
                         max_states=max_states).to_doc()
            if explicit["verdict"] != "unknown":
                assert auto == explicit, text
            else:
                assert auto == check(symbolic_model, text,
                                     strategy="symbolic").to_doc(), text

    def test_large_model_answered_explicitly_compiles_nothing(self):
        model = chain_model(4)
        assert len(model.events) >= 10
        result = check(model, "AG !deadlock", strategy="auto")
        assert result.strategy == "explicit"
        assert result.verdict is Verdict.HOLDS
        assert model.kernel.cache_sizes()["transition_systems"] == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(EngineError, match="strategy"):
            check(alternation_model(), "true", strategy="bogus")


class TestWitnesses:
    def test_ef_witness_is_shortest(self):
        model = alternation_model()
        result = check(model, "EF occurs(b)", strategy="explicit")
        assert result.verdict is Verdict.HOLDS
        assert result.witness_kind == "witness"
        assert result.witness_steps == [frozenset({"a"})]
        trace = result.witness()
        assert len(trace) == 1 and trace.events == ["a", "b"]

    def test_ag_counterexample_reaches_violation(self):
        model = chain_model()
        result = check(model, "AG occurs(a0.start)", strategy="symbolic")
        assert result.witness_kind == "counterexample"
        assert replay_steps(model, result.witness_steps)
        assert len(result.witness_steps) >= 1

    def test_af_counterexample_is_a_lasso(self):
        # free model loops on {b} forever avoiding a
        model = ExecutionModel(["a", "b"], [], name="free")
        result = check(model, "AF occurs(a)", strategy="explicit")
        # occurs(a) is enabled in the single state, so AF holds here;
        # use a leads_to-shaped failure instead
        assert result.verdict is Verdict.HOLDS

    def test_leads_to_counterexample(self):
        model = ExecutionModel(
            ["a", "b"], [DelayedForRuntime("b", "a", 2)], name="delayed")
        explicit = check(model, "occurs(a) leads_to occurs(b)",
                         strategy="explicit")
        symbolic = check(model, "occurs(a) leads_to occurs(b)",
                         strategy="symbolic")
        assert explicit.verdict is symbolic.verdict
        if explicit.verdict is Verdict.FAILS:
            assert explicit.witness_steps == symbolic.witness_steps
            assert replay_steps(model, explicit.witness_steps)

    def test_eg_witness_lasso_replayable(self):
        model = chain_model(3)
        result = check(model, "EG !occurs(a2.start)", strategy="explicit")
        symbolic = check(model, "EG !occurs(a2.start)",
                         strategy="symbolic")
        assert result.verdict is symbolic.verdict
        if result.verdict is Verdict.HOLDS:
            assert result.witness_steps == symbolic.witness_steps
            assert replay_steps(model, result.witness_steps)

    def test_ex_witness_single_step(self):
        model = alternation_model()
        result = check(model, "EX occurs(b)", strategy="explicit")
        assert result.verdict is Verdict.HOLDS
        assert len(result.witness_steps) == 1

    def test_no_witness_for_universal_holds(self):
        result = check(alternation_model(), "AG !deadlock",
                       strategy="explicit")
        assert result.verdict is Verdict.HOLDS
        assert result.witness_steps is None
        assert result.witness() is None

    def test_witness_suppressed_on_request(self):
        result = check(alternation_model(), "EF occurs(b)",
                       strategy="explicit", witness=False)
        assert result.verdict is Verdict.HOLDS
        assert result.witness_steps is None


class TestCheckResult:
    def test_to_doc_shape(self):
        result = check(alternation_model(), "EF occurs(b)",
                       strategy="explicit")
        doc = result.to_doc()
        assert doc["property"] == "EF occurs(b)"
        assert doc["verdict"] == "holds"
        assert doc["strategy"] == "explicit"
        assert doc["witness_kind"] == "witness"
        assert doc["trace"] == [["a"]]
        assert doc["truncated"] is False

    def test_unknown_doc_carries_reason(self):
        model = chain_model(8)
        result = check(model, "AG !deadlock", strategy="explicit",
                       max_states=50)
        doc = result.to_doc()
        assert doc["verdict"] == "unknown"
        assert "truncated" in doc["reason"]
        assert "trace" not in doc

    def test_repr(self):
        result = CheckResult(prop=parse_property("true"),
                             verdict=Verdict.HOLDS, strategy="explicit",
                             states=1, truncated=False, events=[])
        assert "HOLDS" in repr(result)


class TestCaching:
    def test_repeated_explicit_checks_share_one_exploration(self):
        model = chain_model(3)
        assert model.kernel.cache_sizes()["explored_spaces"] == 0
        check(model, "AG !deadlock", strategy="explicit")
        check(model, "EF occurs(a2.start)", strategy="explicit")
        assert model.kernel.cache_sizes()["explored_spaces"] == 1

    def test_repeated_symbolic_checks_share_one_fixpoint(self):
        model = chain_model(3)
        check(model, "AG !deadlock", strategy="symbolic")
        system = model.kernel.transition_system(model)
        checker = system.analysis_cache[("ctl", False)]
        check(model, "EF deadlock", strategy="symbolic")
        assert system.analysis_cache[("ctl", False)] is checker

    def test_budget_keys_the_space_cache(self):
        model = chain_model(4)
        truncated = check(model, "AG !deadlock", strategy="explicit",
                          max_states=5)
        assert truncated.verdict is Verdict.UNKNOWN
        complete = check(model, "AG !deadlock", strategy="explicit")
        assert complete.verdict is Verdict.HOLDS


class TestReplay:
    def test_rejects_non_schedule(self):
        model = alternation_model()
        assert not replay_steps(model, [frozenset({"b"})])
        assert replay_steps(model, [frozenset({"a"}), frozenset({"b"})])

    def test_leaves_model_untouched(self):
        model = alternation_model()
        before = model.configuration()
        replay_steps(model, [frozenset({"a"})])
        assert model.configuration() == before
