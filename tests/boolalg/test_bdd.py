"""Tests for the BDD package."""

import pytest

from repro.boolalg import (
    FALSE,
    TRUE,
    And,
    Bdd,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Xor,
    all_assignments,
)

a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")


class TestBasics:
    def test_terminals(self):
        bdd = Bdd()
        assert bdd.from_expr(TRUE) == bdd.one
        assert bdd.from_expr(FALSE) == bdd.zero

    def test_var_and_negation(self):
        bdd = Bdd()
        x = bdd.var("x")
        assert bdd.evaluate(x, {"x": True})
        assert not bdd.evaluate(x, {"x": False})
        nx = bdd.apply_not(x)
        assert bdd.evaluate(nx, {"x": False})

    def test_canonicity(self):
        bdd = Bdd(order=["a", "b", "c"])
        left = bdd.from_expr(Or(And(a, b), And(a, c), And(b, c)))
        right = bdd.from_expr(Or(And(a, Or(b, c)), And(b, c)))
        assert left == right  # same function -> same node

    def test_tautology_collapses_to_one(self):
        bdd = Bdd()
        node = bdd.from_expr(Or(a, Not(a)))
        assert node == bdd.one

    def test_contradiction_collapses_to_zero(self):
        bdd = Bdd()
        node = bdd.from_expr(And(Iff(a, b), Xor(a, b)))
        assert node == bdd.zero


class TestAgainstTruthTable:
    exprs = [
        Implies(a, b),
        Iff(a, Or(b, c)),
        Or(And(a, b), And(c, d)),
        And(Or(a, b), Or(Not(a), c), Or(Not(b), Not(c))),
        Xor(Xor(a, b), Xor(c, d)),
    ]

    @pytest.mark.parametrize("expr", exprs, ids=lambda e: repr(e)[:40])
    def test_evaluate_matches(self, expr):
        bdd = Bdd()
        node = bdd.from_expr(expr)
        for assignment in all_assignments(expr.support()):
            assert bdd.evaluate(node, assignment) == expr.evaluate(assignment)

    @pytest.mark.parametrize("expr", exprs, ids=lambda e: repr(e)[:40])
    def test_sat_count_matches(self, expr):
        bdd = Bdd()
        node = bdd.from_expr(expr)
        support = sorted(expr.support())
        brute = sum(
            1 for assignment in all_assignments(support)
            if expr.evaluate(assignment))
        assert bdd.sat_count(node, support) == brute

    @pytest.mark.parametrize("expr", exprs, ids=lambda e: repr(e)[:40])
    def test_iter_models_matches(self, expr):
        bdd = Bdd()
        node = bdd.from_expr(expr)
        support = sorted(expr.support())
        brute = {
            frozenset(assignment.items())
            for assignment in all_assignments(support)
            if expr.evaluate(assignment)}
        models = list(bdd.iter_models(node, support))
        assert len(models) == len(brute)
        assert {frozenset(m.items()) for m in models} == brute


class TestModelsOverLargerSets:
    def test_free_variables_expanded(self):
        bdd = Bdd()
        node = bdd.from_expr(a)
        models = list(bdd.iter_models(node, ["a", "b", "c"]))
        assert len(models) == 4
        assert all(m["a"] for m in models)
        assert bdd.sat_count(node, ["a", "b", "c"]) == 4

    def test_two_to_the_n_futures(self):
        # paper §II-C: no constraints -> 2^n acceptable steps
        bdd = Bdd()
        events = [f"e{i}" for i in range(10)]
        assert bdd.sat_count(bdd.one, events) == 1024

    def test_support_must_be_covered(self):
        bdd = Bdd()
        node = bdd.from_expr(And(a, b))
        with pytest.raises(ValueError):
            bdd.sat_count(node, ["a"])
        with pytest.raises(ValueError):
            list(bdd.iter_models(node, ["a"]))


class TestOperations:
    def test_restrict(self):
        bdd = Bdd()
        node = bdd.from_expr(And(a, Or(b, c)))
        restricted = bdd.restrict(node, {"a": True, "b": False})
        expected = bdd.from_expr(c)
        assert restricted == expected
        assert bdd.restrict(node, {"a": False}) == bdd.zero

    def test_exists(self):
        bdd = Bdd()
        node = bdd.from_expr(And(a, b))
        projected = bdd.exists(node, ["b"])
        assert projected == bdd.from_expr(a)

    def test_exists_removes_from_support(self):
        bdd = Bdd()
        node = bdd.from_expr(Or(And(a, b), c))
        projected = bdd.exists(node, ["a", "b"])
        assert bdd.support(projected) <= frozenset({"c"})

    def test_support(self):
        bdd = Bdd()
        # b is irrelevant in (a & b) | (a & ~b) == a
        node = bdd.from_expr(Or(And(a, b), And(a, Not(b))))
        assert bdd.support(node) == frozenset({"a"})

    def test_node_sharing(self):
        bdd = Bdd()
        first = bdd.from_expr(And(a, b))
        before = bdd.node_count()
        second = bdd.from_expr(And(a, b))
        assert first == second
        assert bdd.node_count() == before

    def test_conjunction_is_independent_of_grouping(self):
        # canonicity: a balanced AND tree, the left fold of ``conjoin``
        # and the compiled n-ary And are one and the same node
        exprs = [Implies(a, b), Or(b, c), Not(And(c, d)), Iff(a, d),
                 Or(a, Not(c))]
        bdd = Bdd()
        nodes = [bdd.from_expr(expr) for expr in exprs]
        balanced = bdd.apply_and(
            bdd.apply_and(bdd.apply_and(nodes[0], nodes[1]),
                          bdd.apply_and(nodes[2], nodes[3])),
            nodes[4])
        assert balanced == bdd.conjoin(nodes)
        assert balanced == bdd.from_expr(And(*exprs))
        assert balanced != bdd.zero


class TestRename:
    def test_order_preserving_substitution(self):
        bdd = Bdd(order=["a", "a'", "b", "b'"])
        node = bdd.from_expr(And(Var("a'"), Not(Var("b'"))))
        renamed = bdd.rename(node, {"a'": "a", "b'": "b"})
        assert renamed == bdd.from_expr(And(a, Not(b)))

    def test_identity_on_unrelated_function(self):
        bdd = Bdd(order=["a", "b", "c"])
        node = bdd.from_expr(Or(a, c))
        assert bdd.rename(node, {"b": "x"}) == node

    def test_undeclared_source_is_ignored(self):
        bdd = Bdd(order=["a"])
        node = bdd.from_expr(a)
        assert bdd.rename(node, {"zzz": "a"}) == node

    def test_non_monotone_mapping_falls_back_to_substitute(self):
        # sifting can interleave bits arbitrarily, so rename must keep
        # working (via substitute) when the map is not order-monotone
        bdd = Bdd(order=["a", "b"])
        node = bdd.from_expr(And(a, Not(b)))
        renamed = bdd.rename(node, {"a": "z"})  # z is declared after b
        assert renamed == bdd.from_expr(And(Var("z"), Not(b)))

    def test_swap_falls_back_to_substitute(self):
        bdd = Bdd(order=["a", "b"])
        node = bdd.from_expr(And(a, Not(b)))
        renamed = bdd.rename(node, {"a": "b", "b": "a"})
        assert renamed == bdd.from_expr(And(b, Not(a)))

    def test_rename_preserves_models(self):
        bdd = Bdd(order=["p", "p'", "q", "q'"])
        node = bdd.from_expr(Iff(Var("p'"), Var("q'")))
        renamed = bdd.rename(node, {"p'": "p", "q'": "q"})
        for assignment in all_assignments(frozenset({"p", "q"})):
            primed = {name + "'": value
                      for name, value in assignment.items()}
            assert bdd.evaluate(renamed, assignment) == \
                bdd.evaluate(node, primed)


class TestSubstitute:
    """The general simultaneous substitution — rename's paired twin for
    the non-monotone (current↔primed swap) case."""

    def test_swap_is_simultaneous(self):
        bdd = Bdd(order=["a", "b"])
        node = bdd.from_expr(And(a, Not(b)))
        swapped = bdd.substitute(node, {"a": "b", "b": "a"})
        assert swapped == bdd.from_expr(And(b, Not(a)))

    def test_current_primed_shift_both_ways(self):
        bdd = Bdd(order=["p", "p'", "q", "q'"])
        node = bdd.from_expr(Iff(Var("p"), Not(Var("q"))))
        primed = bdd.substitute(node, {"p": "p'", "q": "q'"})
        assert primed == bdd.from_expr(Iff(Var("p'"), Not(Var("q'"))))
        # and back — the round trip is the identity
        assert bdd.substitute(primed, {"p'": "p", "q'": "q"}) == node

    def test_agrees_with_rename_on_monotone_maps(self):
        bdd = Bdd(order=["a", "a'", "b", "b'"])
        node = bdd.from_expr(And(Var("a'"), Not(Var("b'"))))
        mapping = {"a'": "a", "b'": "b"}
        assert bdd.substitute(node, mapping) == bdd.rename(node, mapping)

    def test_undeclared_source_is_ignored(self):
        bdd = Bdd(order=["a"])
        node = bdd.from_expr(a)
        assert bdd.substitute(node, {"zzz": "a"}) == node

    def test_swap_preserves_models(self):
        bdd = Bdd(order=["p", "q", "r"])
        node = bdd.from_expr(Or(And(Var("p"), Var("q")), Not(Var("r"))))
        swapped = bdd.substitute(node, {"p": "r", "r": "p"})
        for assignment in all_assignments(frozenset({"p", "q", "r"})):
            exchanged = dict(assignment, p=assignment["r"],
                             r=assignment["p"])
            assert bdd.evaluate(swapped, assignment) == \
                bdd.evaluate(node, exchanged)

    def test_interleaved_relation_shift(self):
        # the exact shape image/preimage uses: cur/primed interleaved
        # with an event variable in between
        bdd = Bdd(order=["e", "s0", "s0'", "s1", "s1'"])
        node = bdd.from_expr(And(Var("s0"), Or(Var("s1"), Var("e"))))
        shifted = bdd.substitute(node, {"s0": "s0'", "s1": "s1'"})
        assert shifted == bdd.from_expr(
            And(Var("s0'"), Or(Var("s1'"), Var("e"))))


class TestExprMemoBound:
    def test_memo_is_evicted_not_pinned(self):
        bdd = Bdd()
        limit = Bdd.MEMOS["expr"].cap
        total = limit + 500
        for index in range(total):
            bdd.from_expr(Or(Var(f"v{index}"), Var(f"v{index + 1}")))
            assert bdd.cache_sizes()["expr"] <= limit
        assert bdd.cache_sizes()["expr"] == limit

    def test_hot_entries_survive_eviction(self, monkeypatch):
        bdd = Bdd()
        hot = And(a, b)
        bdd.from_expr(hot)
        monkeypatch.setattr(Bdd.MEMOS["expr"], "cap", 64)
        for index in range(200):
            bdd.from_expr(hot)  # keep it recently used
            bdd.from_expr(Or(Var(f"w{index}"), c))
        assert hot in bdd._expr_cache
        assert bdd.cache_sizes()["expr"] <= 64
