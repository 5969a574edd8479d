"""Dynamic variable reordering: sifting correctness and the auto trigger.

A reorder may only change *where* variables sit in the order, never
*what* any surviving node denotes. These tests pin that contract three
ways: property-based semantic invariance (``sat_count``, ``evaluate``
and ``iter_models`` agree before and after random reorders), the
adjacent-level swap primitive in isolation (white-box), and the split
between mechanism and policy: the manager never reorders on its own,
and the one automatic trigger, ``TransitionSystem._maybe_reorder``,
re-arms after firing and skips the sift under allocation churn. A
brute-force sweep over every ``ite`` triple of a small function space
guards the normalization rules — operand collapses can re-merge
branches, and a missed re-check there historically corrupted
canonicity.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.boolalg import And, Bdd, Iff, Implies, Not, Or, Var, Xor, \
    all_assignments
from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.engine import ExecutionModel
from repro.obs import GLOBAL

NAMES = ["p", "q", "r", "s", "t"]


def exprs(max_leaves: int = 10):
    leaf = st.sampled_from([Var(name) for name in NAMES])

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


def fresh_bdd() -> Bdd:
    bdd = Bdd()
    for name in NAMES:
        bdd.declare(name)
    return bdd


class TestReorderSemanticInvariance:
    @settings(max_examples=60, deadline=None)
    @given(expr=exprs(), budget=st.integers(min_value=1, max_value=10))
    def test_sat_count_evaluate_models_survive_reorder(self, expr, budget):
        bdd = fresh_bdd()
        node = bdd.from_expr(expr)
        models_before = sorted(
            tuple(sorted(model.items()))
            for model in bdd.iter_models(node, NAMES))
        count_before = bdd.sat_count(node, NAMES)
        values_before = [bdd.evaluate(node, dict(assignment))
                        for assignment in all_assignments(NAMES)]

        bdd.reorder(budget=budget, roots=[node])

        assert bdd.sat_count(node, NAMES) == count_before
        assert [bdd.evaluate(node, dict(assignment))
                for assignment in all_assignments(NAMES)] == values_before
        assert sorted(tuple(sorted(model.items()))
                      for model in bdd.iter_models(node, NAMES)) \
            == models_before

    @settings(max_examples=30, deadline=None)
    @given(expr=exprs())
    def test_repeated_reorders_converge_and_stay_sound(self, expr):
        bdd = fresh_bdd()
        node = bdd.from_expr(expr)
        count = bdd.sat_count(node, NAMES)
        for _ in range(3):
            bdd.reorder(roots=[node])
            assert bdd.sat_count(node, NAMES) == count

    @settings(max_examples=30, deadline=None)
    @given(left=exprs(max_leaves=6), right=exprs(max_leaves=6))
    def test_canonicity_survives_reorder(self, left, right):
        """Rebuilding a function after a reorder lands on the same node
        id a surviving root already has — the unique table stays
        canonical under the new order."""
        bdd = fresh_bdd()
        node = bdd.from_expr(And(left, Or(right, left)))
        bdd.reorder(roots=[node])
        again = bdd.from_expr(And(left, Or(right, left)))
        assert again == node


class TestRenameSubstituteAfterReorder:
    """Sifting can interleave variables arbitrarily, breaking the
    order-monotonicity that ``rename``'s fast path assumes; it must
    detect that and still produce the semantically renamed function."""

    def setup_node(self):
        bdd = Bdd()
        for name in ("a", "b", "a'", "b'"):
            bdd.declare(name)
        expr = And(Or(Var("a"), Var("b")), Not(And(Var("a"), Var("b"))))
        return bdd, bdd.from_expr(expr)

    def test_rename_after_non_monotone_reorder(self):
        bdd, node = self.setup_node()
        bdd.reorder(roots=[node])  # may interleave a/b with a'/b'
        renamed = bdd.rename(node, {"a": "a'", "b": "b'"})
        for va, vb in itertools.product((False, True), repeat=2):
            want = (va or vb) and not (va and vb)
            got = bdd.evaluate(
                renamed, {"a'": va, "b'": vb, "a": False, "b": False})
            assert got == want, (va, vb)

    def test_substitute_after_reorder(self):
        bdd, node = self.setup_node()
        bdd.reorder(roots=[node])
        swapped = bdd.substitute(node, {"a": "b", "b": "a"})
        for va, vb in itertools.product((False, True), repeat=2):
            want = (vb or va) and not (vb and va)
            assert bdd.evaluate(swapped, {"a": va, "b": vb}) == want


class TestAdjacentSwapPrimitive:
    """White-box: one adjacent-level swap, semantics and canonicity."""

    def run_swap(self, bdd, node, upper_level):
        bdd._reordering = True
        try:
            bdd._init_reorder_refs([node])
            bdd._init_level_buckets()
            bdd._swap_adjacent(upper_level)
        finally:
            bdd._reordering = False
            bdd._level_nodes = {}
        bdd.clear_operation_caches()

    @pytest.mark.parametrize("upper", [0, 1, 2, 3])
    def test_single_swap_preserves_semantics(self, upper):
        bdd = fresh_bdd()
        expr = Or(And(Var("p"), Var("q")),
                  And(Var("r"), Xor(Var("s"), Var("t"))))
        node = bdd.from_expr(expr)
        values = [bdd.evaluate(node, dict(assignment))
                  for assignment in all_assignments(NAMES)]
        order_before = bdd.order
        self.run_swap(bdd, node, upper)
        order_after = bdd.order
        # the two levels swapped places, nothing else moved
        assert order_after[upper] == order_before[upper + 1]
        assert order_after[upper + 1] == order_before[upper]
        assert [bdd.evaluate(node, dict(assignment))
                for assignment in all_assignments(NAMES)] == values

    def test_swap_then_swap_back_is_identity_on_semantics(self):
        bdd = fresh_bdd()
        node = bdd.from_expr(Iff(Var("p"), Or(Var("q"), Var("r"))))
        count = bdd.sat_count(node, NAMES)
        self.run_swap(bdd, node, 1)
        self.run_swap(bdd, node, 1)
        assert bdd.order == NAMES
        assert bdd.sat_count(node, NAMES) == count


def compiled_system():
    """A small compiled transition system: its manager owns the trigger
    policy the engine applies at its safe points."""
    model = ExecutionModel(
        ["a", "b", "c"],
        [AlternatesRuntime("a", "b"), PrecedesRuntime("b", "c", bound=2)],
        name="trigger")
    return model.kernel.transition_system(model)


def fired():
    """Automatic trigger firings so far: sifts plus churn skips."""
    return GLOBAL.counter("bdd.reorders") + GLOBAL.counter("bdd.reorder_skips")


class TestAutoReorderTrigger:
    def build_junk(self, bdd, names=NAMES, rounds=24):
        """Allocate enough distinct structure to cross a small
        threshold: a growing union of minterms — every partial union is
        a new function, so each round genuinely extends the table."""
        acc = []
        union = bdd.zero
        for index in range(rounds):
            minterm = bdd.one
            for position, name in enumerate(names):
                literal = (bdd.var(name) if (index >> position) & 1
                           else bdd.nvar(name))
                minterm = bdd.apply_and(minterm, literal)
            union = bdd.apply_or(union, minterm)
            acc.append(union)
        return acc

    def test_manager_never_reorders_on_its_own(self):
        """The manager is a mechanism: thousands of allocations and
        every top-level operation leave the order alone until its
        owner calls reorder()."""
        names = [f"v{i}" for i in range(12)]
        bdd = Bdd(order=names)
        nodes = self.build_junk(bdd, names, rounds=600)
        union = nodes[-1]
        bdd.exists(union, names[:3])
        bdd.and_exists(union, nodes[100], names[3:6])
        bdd.rename(union, {"v0": "w0"})
        bdd.substitute(union, {"v1": "v2", "v2": "v1"})
        bdd.from_expr(Xor(Var("v0"), Var("v11")))
        bdd.conjoin(nodes[::50])
        assert bdd.node_count() > 2_000
        assert bdd.reorder_count == 0
        assert bdd.order == names + ["w0"]

    def test_threshold_ratchets_after_firing(self):
        system = compiled_system()
        system._reorder_at = 64
        assert system.bdd.node_count() > 64  # due at the next safe point
        before = fired()
        system._maybe_reorder()
        assert fired() == before + 1
        assert system._reorder_at >= 2 * system.bdd.node_count()
        system._maybe_reorder()  # re-armed: nothing is due
        assert fired() == before + 1

    def test_auto_churn_skip_keeps_caches_and_ids(self):
        """An automatic reorder whose roots reach only a sliver of the
        table must skip the sift: ids stay valid, caches stay warm."""
        system = compiled_system()
        bdd = system.bdd
        self.build_junk(bdd, [f"j{i}" for i in range(10)], rounds=300)
        node = bdd.from_expr(And(Var("p"), Or(Var("q"), Var("r"))))
        count = bdd.sat_count(node, NAMES)
        initial = bdd.sat_count(system.initial_node, system.all_cur)
        cache_before = bdd.cache_sizes()["ite"]
        order, table = bdd.order, bdd.node_count()
        skips = GLOBAL.counter("bdd.reorder_skips")
        assert cache_before > 0
        system._reorder_at = 64
        system._maybe_reorder(node)
        assert GLOBAL.counter("bdd.reorder_skips") == skips + 1
        assert bdd.reorder_count == 0  # skipped, not run
        assert bdd.cache_sizes()["ite"] == cache_before
        assert (bdd.order, bdd.node_count()) == (order, table)
        assert bdd.sat_count(node, NAMES) == count
        assert bdd.sat_count(system.initial_node, system.all_cur) == initial
        assert system._reorder_at >= 2 * table

    def test_explicit_reorder_never_churn_skips(self):
        """A user-requested reorder always sifts, even tiny roots."""
        bdd = Bdd()
        for name in NAMES:
            bdd.declare(name)
        self.build_junk(bdd)
        node = bdd.from_expr(And(Var("p"), Var("s")))
        bdd.reorder(roots=[node])
        assert bdd.reorder_count == 1

    def test_unrooted_ids_are_invalidated(self):
        """The live-only contract: a reorder with explicit roots
        evicts everything unreachable from them — rebuilding the same
        function afterwards allocates a fresh canonical node."""
        bdd = fresh_bdd()
        keep = bdd.from_expr(And(Var("p"), Var("q")))
        drop = bdd.from_expr(Xor(Var("r"), Var("s")))
        bdd.reorder(roots=[keep])
        rebuilt = bdd.from_expr(Xor(Var("r"), Var("s")))
        assert rebuilt != drop  # the old id did not survive
        assert bdd.sat_count(rebuilt, ["r", "s"]) == 2


class TestIteTripleCanonicity:
    """Brute force every ite triple over a small closed function space:
    results must match truth-table semantics and stay canonical (one
    node id per function). Guards the normalization collapses — f==g /
    f==h rewrites can re-merge g and h, and the not_f path can move a
    terminal into the f slot; both need their g==h re-check."""

    def test_all_triples_of_two_variable_space(self):
        bdd = Bdd()
        for name in ("a", "b"):
            bdd.declare(name)
        a, b = bdd.var("a"), bdd.var("b")
        # close the 2-variable function space: all 16 functions
        space = {bdd.zero, bdd.one, a, b}
        while True:
            grown = set(space)
            for f, g in itertools.product(list(space), repeat=2):
                grown.add(bdd.apply_and(f, g))
                grown.add(bdd.apply_or(f, g))
                grown.add(bdd.apply_xor(f, g))
                grown.add(bdd.apply_not(f))
            if grown == space:
                break
            space = grown
        assignments = [dict(zip(("a", "b"), bits))
                       for bits in itertools.product((False, True),
                                                     repeat=2)]

        def table(node):
            return tuple(bdd.evaluate(node, one) for one in assignments)

        canonical: dict[tuple, int] = {table(node): node for node in space}
        assert len(canonical) == 16  # the space really is closed

        for f, g, h in itertools.product(sorted(space), repeat=3):
            result = bdd.ite(f, g, h)
            want = tuple(
                gv if fv else hv
                for fv, gv, hv in zip(table(f), table(g), table(h)))
            assert table(result) == want, (f, g, h)
            assert canonical.setdefault(want, result) == result, \
                f"two node ids for one function via ite({f},{g},{h})"
