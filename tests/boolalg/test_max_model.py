"""Tests for BDD maximum-true-model extraction (the ASAP fast path)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.boolalg import (
    And,
    Bdd,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    Var,
    all_assignments,
)

a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
NAMES = ["a", "b", "c", "d"]


class TestMaxTrueModel:
    def test_unsat_returns_none(self):
        bdd = Bdd()
        assert bdd.max_true_model(bdd.zero, ["a"]) is None
        node = bdd.from_expr(And(a, Not(a)))
        assert bdd.max_true_model(node, ["a"]) is None

    def test_tautology_all_true(self):
        bdd = Bdd()
        model = bdd.max_true_model(bdd.one, NAMES)
        assert model == {name: True for name in NAMES}

    def test_forced_false_variable(self):
        bdd = Bdd()
        node = bdd.from_expr(And(Not(a), b))
        model = bdd.max_true_model(node, NAMES)
        assert model["a"] is False
        assert model["b"] is True
        assert model["c"] is True and model["d"] is True  # free -> true

    def test_exclusion_picks_one(self):
        bdd = Bdd()
        node = bdd.from_expr(Not(And(a, b)))
        model = bdd.max_true_model(node, ["a", "b"])
        assert sum(model.values()) == 1

    def test_implication_chain_all_true(self):
        bdd = Bdd()
        node = bdd.from_expr(And(Implies(a, b), Implies(b, c)))
        model = bdd.max_true_model(node, ["a", "b", "c"])
        assert model == {"a": True, "b": True, "c": True}

    def test_support_must_be_covered(self):
        bdd = Bdd()
        node = bdd.from_expr(And(a, b))
        with pytest.raises(ValueError):
            bdd.max_true_model(node, ["a"])

    def test_deterministic(self):
        bdd = Bdd()
        node = bdd.from_expr(Or(And(a, Not(b)), And(Not(a), b)))
        first = bdd.max_true_model(node, NAMES)
        second = bdd.max_true_model(node, NAMES)
        assert first == second


class TestProbeUnderAssumption:
    """``max_true_model(f & var(e))``: is there a model of *f* that
    fires *e* (lint's dead-event question)?"""

    def test_witness_fires_the_event(self):
        bdd = Bdd()
        expr = And(Or(a, b), Not(And(a, b)), Implies(c, a))
        node = bdd.from_expr(expr)
        witness = bdd.max_true_model(
            bdd.apply_and(node, bdd.var("b")), ["a", "b", "c"])
        assert witness == {"a": False, "b": True, "c": False}
        assert expr.evaluate(witness)

    def test_dead_event_has_no_witness(self):
        bdd = Bdd()
        node = bdd.from_expr(And(Implies(a, b), Not(b)))
        assert bdd.max_true_model(node, ["a", "b"]) == {
            "a": False, "b": False}
        assert bdd.max_true_model(
            bdd.apply_and(node, bdd.var("a")), ["a", "b"]) is None

    def test_unsat_clause_set_has_no_model(self):
        # every clause over {a, b}: no expression-level folding applies,
        # the contradiction only shows once the clauses are conjoined
        clauses = [Or(a, b), Or(Not(a), b), Or(a, Not(b)),
                   Or(Not(a), Not(b))]
        bdd = Bdd()
        node = bdd.conjoin(bdd.from_expr(clause) for clause in clauses)
        assert node == bdd.zero
        assert bdd.max_true_model(node, ["a", "b"]) is None
        three = bdd.conjoin(bdd.from_expr(clause) for clause in clauses[1:])
        assert bdd.max_true_model(three, ["a", "b"]) == {
            "a": False, "b": False}


def exprs(max_leaves=10):
    leaf = st.sampled_from([Var(name) for name in NAMES] + [TRUE, FALSE])

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda p: And(*p)),
            st.tuples(children, children).map(lambda p: Or(*p)),
            st.tuples(children, children).map(lambda p: Implies(*p)),
            st.tuples(children, children).map(lambda p: Iff(*p)),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_max_model_is_model_and_maximal(expr):
    bdd = Bdd(order=NAMES)
    node = bdd.from_expr(expr)
    model = bdd.max_true_model(node, NAMES)
    brute_best = None
    for assignment in all_assignments(NAMES):
        if expr.evaluate(assignment):
            count = sum(assignment.values())
            if brute_best is None or count > brute_best:
                brute_best = count
    if brute_best is None:
        assert model is None
    else:
        assert model is not None
        assert expr.evaluate(model)
        assert sum(model.values()) == brute_best


@settings(max_examples=100, deadline=None)
@given(exprs())
def test_probe_matches_brute_force(expr):
    bdd = Bdd(order=NAMES)
    node = bdd.from_expr(expr)
    for name in NAMES:
        witness = bdd.max_true_model(
            bdd.apply_and(node, bdd.var(name)), NAMES)
        fires = any(expr.evaluate(assignment) and assignment[name]
                    for assignment in all_assignments(NAMES))
        if fires:
            assert witness is not None
            assert witness[name] and expr.evaluate(witness)
        else:
            assert witness is None
