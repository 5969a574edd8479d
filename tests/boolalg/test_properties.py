"""Property-based tests: the BDD agrees with direct evaluation."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.boolalg import (
    And,
    Bdd,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Xor,
    all_assignments,
    iter_models,
)

NAMES = ["p", "q", "r", "s"]


def exprs(max_leaves: int = 12):
    leaf = st.one_of(
        st.sampled_from([Var(name) for name in NAMES]),
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda p: And(*p)),
            st.tuples(children, children).map(lambda p: Or(*p)),
            st.tuples(children, children).map(lambda p: Implies(*p)),
            st.tuples(children, children).map(lambda p: Iff(*p)),
            st.tuples(children, children).map(lambda p: Xor(*p)),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


@settings(max_examples=120, deadline=None)
@given(exprs())
def test_bdd_matches_evaluation(expr):
    bdd = Bdd(order=NAMES)
    node = bdd.from_expr(expr)
    for assignment in all_assignments(NAMES):
        assert bdd.evaluate(node, assignment) == expr.evaluate(assignment)


@settings(max_examples=80, deadline=None)
@given(exprs(max_leaves=8))
def test_bdd_models_match_brute_force(expr):
    bdd = Bdd(order=NAMES)
    node = bdd.from_expr(expr)
    brute_models = {frozenset(m.items()) for m in iter_models(expr, NAMES)}
    bdd_models = {frozenset(m.items()) for m in bdd.iter_models(node, NAMES)}
    assert brute_models == bdd_models
    assert bdd.sat_count(node, NAMES) == len(bdd_models)


@settings(max_examples=80, deadline=None)
@given(exprs(max_leaves=8), exprs(max_leaves=8))
def test_de_morgan(left, right):
    lhs = Not(And(left, right))
    rhs = Or(Not(left), Not(right))
    for assignment in all_assignments(NAMES):
        assert lhs.evaluate(assignment) == rhs.evaluate(assignment)


@settings(max_examples=80, deadline=None)
@given(exprs(max_leaves=8))
def test_double_negation_via_bdd(expr):
    bdd = Bdd(order=NAMES)
    node = bdd.from_expr(expr)
    assert bdd.apply_not(bdd.apply_not(node)) == node
