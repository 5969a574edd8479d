"""CCSL rules: stateless contradictions, strict cycles, parameters."""

import random

from repro.boolalg import And, Bdd, Var, iter_models
from repro.engine import ExecutionModel
from repro.lint import lint_handle
from repro.lint.rules_ccsl import (
    leaf_runtimes,
    precedence_edges,
    rule_stateless_dead,
)
from repro.moccml.semantics.runtime import FormulaRuntime
from repro.workbench import CcslSpec, load


def rules_of(handle, rule):
    return [d for d in lint_handle(handle).diagnostics if d.rule == rule]


def ccsl(name, events, constraints):
    return load(CcslSpec(name=name, events=events,
                         constraints=constraints))


class TestStatelessContradiction:
    def test_coincides_plus_excludes_kills_both(self):
        handle = ccsl("contra", ["x", "y"], [
            ("Coincides", ("x", "y")),
            ("Excludes", ("x", "y")),
        ])
        findings = rules_of(handle, "CCS001")
        assert {d.data["event"] for d in findings} == {"x", "y"}
        for finding in findings:
            assert finding.data["confirm"]["kind"] == "dead-event"

    def test_contradiction_kills_every_constrained_event(self):
        """No step at all satisfies ``a | b`` with its negation, however
        the contradiction is spelled: both events are dead, also when
        the conjunction folds to FALSE before the BDD sees it."""
        a, b = Var("a"), Var("b")
        for formulas in ([a | b, ~(a | b)], [a | b, ~a, ~b]):
            runtimes = [FormulaRuntime(f"f{index}", formula)
                        for index, formula in enumerate(formulas)]
            model = ExecutionModel(["a", "b"], runtimes, name="contra")
            assert model.acceptable_steps(include_empty=True) == []
            findings = rules_of(load(model), "CCS001")
            assert [d.data["event"] for d in findings] == ["a", "b"], formulas

    def test_plain_coincides_is_clean(self):
        handle = ccsl("coinc", ["x", "y"], [("Coincides", ("x", "y"))])
        assert rules_of(handle, "CCS001") == []

    def test_free_event_stays_alive(self):
        handle = ccsl("smoke", ["a", "b", "c"], [
            ("Coincides", ("a", "b")),
            ("Excludes", ("a", "b")),
        ])
        findings = rules_of(handle, "CCS001")
        assert [d.data["event"] for d in findings] == ["a", "b"]
        assert {d.severity for d in findings} == {"error"}
        assert findings[0].path == "smoke.a"
        assert findings[0].message == (
            "event 'a' cannot occur in any step satisfying the "
            "stateless constraints")

    def test_subclock_of_a_dead_event_is_dead(self):
        # a => b, and b can never fire: a dies with it
        handle = ccsl("sub", ["a", "b", "c"], [
            ("SubClock", ("a", "b")),
            ("Coincides", ("b", "c")),
            ("Excludes", ("b", "c")),
        ])
        findings = rules_of(handle, "CCS001")
        assert {d.data["event"] for d in findings} == {"a", "b", "c"}

    def test_supclock_of_a_dead_event_stays_alive(self):
        # b => a only bounds a from below
        handle = ccsl("sup", ["a", "b", "c"], [
            ("SubClock", ("b", "a")),
            ("Coincides", ("b", "c")),
            ("Excludes", ("b", "c")),
        ])
        findings = rules_of(handle, "CCS001")
        assert {d.data["event"] for d in findings} == {"b", "c"}

    def test_union_of_dead_events_is_dead(self):
        handle = ccsl("union", ["r", "x", "y", "z"], [
            ("Union", ("r", "x", "y")),
            ("Coincides", ("x", "z")),
            ("Excludes", ("x", "z")),
            ("Coincides", ("y", "z")),
        ])
        findings = rules_of(handle, "CCS001")
        assert {d.data["event"] for d in findings} == {"r", "x", "y", "z"}

    def test_intersection_with_a_dead_operand_is_dead(self):
        handle = ccsl("inter", ["r", "x", "y", "z"], [
            ("Intersection", ("r", "x", "y")),
            ("Coincides", ("x", "z")),
            ("Excludes", ("x", "z")),
        ])
        findings = rules_of(handle, "CCS001")
        assert {d.data["event"] for d in findings} == {"r", "x", "z"}

    def test_stateful_constraints_stay_out_of_the_conjunction(self):
        # Alternates + Coincides starves both events, but only the
        # stateful constraint forbids the joint step: not CCS001's case
        handle = ccsl("stateful", ["a", "b"], [
            ("Alternates", ("a", "b")),
            ("Coincides", ("a", "b")),
        ])
        assert rules_of(handle, "CCS001") == []


class TestStatelessDecision:
    """CCS001 decides on a BDD of its own: one maximal model, then one
    probe per event that no model found so far fires."""

    def test_model_kernel_is_not_grown(self):
        handle = ccsl("private", ["x", "y", "z"], [
            ("Coincides", ("x", "y")),
            ("Excludes", ("x", "y")),
            ("SubClock", ("z", "x")),
        ])
        kernel_bdd = handle.execution_model.kernel.bdd
        before = kernel_bdd.node_count()
        findings = list(rule_stateless_dead(handle))
        assert len(findings) == 3
        assert kernel_bdd.node_count() == before

    def test_diagnostics_follow_event_order(self):
        handle = ccsl("order", ["y", "b", "x", "a"], [
            ("Coincides", ("x", "y")),
            ("Excludes", ("x", "y")),
        ])
        events = [d.data["event"] for d in rule_stateless_dead(handle)]
        assert events == ["y", "x"]

    def test_clean_model_is_decided_by_one_walk(self, monkeypatch):
        walks = count_walks(monkeypatch)
        handle = ccsl("clean", ["a", "b", "c"], [
            ("SubClock", ("a", "b")),
            ("Union", ("c", "a", "b")),
        ])
        assert list(rule_stateless_dead(handle)) == []
        # one walk, on the whole conjunction: a => b, c <=> a | b has
        # three models over {a, b, c}, and the maximal one fires all
        assert walks == [3]

    def test_each_unproven_event_costs_one_probe(self, monkeypatch):
        walks = count_walks(monkeypatch)
        # the maximal model fires a or b, never both: one probe for the
        # other; z is outside the conjunction's support and never probed
        handle = ccsl("probe", ["a", "b", "z"], [("Excludes", ("a", "b"))])
        assert list(rule_stateless_dead(handle)) == []
        # six models of the conjunction, then two with the probed event
        assert walks == [6, 2]


def count_walks(monkeypatch):
    """Record, for every ``Bdd.max_true_model`` call, the model count of
    the function it walks."""
    walks = []
    max_true_model = Bdd.max_true_model

    def counted(self, node, names):
        walks.append(self.sat_count(node, names))
        return max_true_model(self, node, names)

    monkeypatch.setattr(Bdd, "max_true_model", counted)
    return walks


#: the stateless CCSL relations, by arity (binary relations, then the
#: expressions ``result = first op second``)
STATELESS = [("SubClock", 2), ("Coincides", 2), ("Excludes", 2),
             ("Union", 3), ("Intersection", 3), ("Minus", 3)]


def stateless_corpus():
    """A fixed-seed corpus of 50 small CCSL models built from random
    stateless relations only."""
    rng = random.Random(25)
    corpus = []
    for index in range(50):
        events = [f"e{i}" for i in range(rng.randint(3, 5))]
        constraints = []
        for _ in range(rng.randint(2, 5)):
            relation, arity = rng.choice(STATELESS)
            constraints.append((relation, tuple(rng.sample(events, arity))))
        corpus.append(ccsl(f"m{index}", events, constraints))
    return corpus


def brute_force_dead(model):
    """Events of the conjunction's support that no satisfying
    assignment over all events sets true (direct evaluation)."""
    formulas = [runtime.step_formula() for runtime in leaf_runtimes(model)
                if isinstance(runtime, FormulaRuntime)]
    conjunction = And(*formulas)
    fired = set()
    for assignment in iter_models(conjunction, model.events):
        fired |= {event for event, value in assignment.items() if value}
    return sorted(conjunction.support() - fired)


class TestStatelessReference:
    def test_dead_events_match_brute_force(self):
        dead = alive = 0
        for handle in stateless_corpus():
            model = handle.execution_model
            expected = brute_force_dead(model)
            findings = rules_of(handle, "CCS001")
            assert [d.data["event"] for d in findings] == expected, \
                [runtime.label for runtime in leaf_runtimes(model)]
            dead += len(expected)
            alive += len(model.events) - len(expected)
        # the corpus exercises both answers
        assert dead and alive


class TestPrecedenceCycle:
    def test_alternates_cycle_kills_every_member(self):
        handle = ccsl("cycle", ["a", "b"], [
            ("Alternates", ("a", "b")),
            ("Alternates", ("b", "a")),
        ])
        findings = rules_of(handle, "CCS002")
        assert {d.data["event"] for d in findings} == {"a", "b"}
        assert all(d.data["cycle"] == ["a", "b"] for d in findings)

    def test_pure_causes_cycle_is_legal(self):
        # Causes edges are weak: simultaneous firing satisfies them
        handle = ccsl("weak", ["a", "b"], [
            ("Causes", ("a", "b")),
            ("Causes", ("b", "a")),
        ])
        assert rules_of(handle, "CCS002") == []

    def test_chain_without_cycle_is_clean(self):
        handle = ccsl("chain", ["a", "b", "c"], [
            ("Alternates", ("a", "b")),
            ("Alternates", ("b", "c")),
        ])
        assert rules_of(handle, "CCS002") == []

    def test_edge_extraction(self):
        handle = ccsl("edges", ["a", "b", "c"], [
            ("Alternates", ("a", "b")),
            ("Causes", ("b", "c")),
        ])
        edges = precedence_edges(handle.execution_model)
        strictness = {(c, e): strict for c, e, strict, _ in edges}
        assert strictness[("a", "b")] is True
        assert strictness[("b", "c")] is False


class TestUnconstrainedEvents:
    def test_free_clock_warns(self):
        handle = ccsl("free", ["a", "b", "ghost"],
                      [("Alternates", ("a", "b"))])
        [finding] = rules_of(handle, "CCS003")
        assert finding.severity == "warning"
        assert finding.data["event"] == "ghost"

    def test_sigpml_models_are_exempt(self, clean_chain):
        # every SigPML event is woven into constraints anyway, but the
        # rule is scoped to ccsl/moccml front-ends outright
        assert rules_of(clean_chain, "CCS003") == []


class TestParameterContradictions:
    def test_delay_deeper_than_bound(self):
        handle = ccsl("stuck", ["b", "d"], [
            ("DelayedFor", ("d", "b", 3)),
            ("BoundedPrecedes", ("b", "d", 1)),
        ])
        findings = rules_of(handle, "CCS004")
        assert any(d.data["event"] == "d" for d in findings)

    def test_delay_within_bound_is_clean(self):
        handle = ccsl("fits", ["b", "d"], [
            ("DelayedFor", ("d", "b", 1)),
            ("BoundedPrecedes", ("b", "d", 2)),
        ])
        assert rules_of(handle, "CCS004") == []

    def test_clashing_periodic_filters(self):
        handle = ccsl("clash", ["base", "f"], [
            ("PeriodicOn", ("f", "base", 2, 0)),
            ("PeriodicOn", ("f", "base", 2, 1)),
        ])
        findings = rules_of(handle, "CCS004")
        assert any(d.data["event"] == "f" for d in findings)

    def test_compatible_periodic_filters_are_clean(self):
        handle = ccsl("compat", ["base", "f"], [
            ("PeriodicOn", ("f", "base", 2, 1)),
            ("PeriodicOn", ("f", "base", 4, 1)),
        ])
        assert rules_of(handle, "CCS004") == []

    def test_all_zero_filter_word(self):
        # FilterBy(filtered, base, prefix_bits, prefix_len,
        #          period_bits, period_len): word 0(0)^ω keeps nothing
        handle = ccsl("zero", ["base", "f"], [
            ("FilterBy", ("f", "base", 0, 1, 0, 1)),
        ])
        findings = rules_of(handle, "CCS004")
        assert any(d.data["event"] == "f" for d in findings)
