"""The mandatory equivalence harness: symbolic vs explicit reachability.

Every model family in the corpus is cross-checked — identical state
spaces (states, transitions, serialized bytes, truncation frontiers)
plus the symbolic checker's own reachable set, deadlock set and
``occurs`` atoms. A mismatch anywhere is a bug in the symbolic engine,
never an acceptable difference.
"""

import pytest

from repro.ccsl import (
    AlternatesRuntime,
    DeadlineRuntime,
    DelayedForRuntime,
    FilterByRuntime,
    PeriodicOnRuntime,
    PrecedesRuntime,
    SampledOnRuntime,
)
import repro.engine.ctl as ctl
from repro.engine import ExecutionModel, assert_equivalent, cross_check
from repro.engine.equivalence import property_findings
from repro.errors import SymbolicEncodingError
from repro.moccml.semantics.runtime import FormulaRuntime
from repro.boolalg.expr import Implies, Not, Or, Var
from repro.sdf import SdfBuilder, weave_sdf
from repro.workbench import CcslSpec, load


def sdf_chain(length, capacity=1, variant="default"):
    builder = SdfBuilder(f"chain{length}c{capacity}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model, place_variant=variant).execution_model


def sdf_forkjoin(capacity=1):
    builder = SdfBuilder("forkjoin")
    for name in ("split", "left", "right", "join"):
        builder.agent(name)
    builder.connect("split", "left", capacity=capacity)
    builder.connect("split", "right", capacity=capacity)
    builder.connect("left", "join", capacity=capacity)
    builder.connect("right", "join", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def ccsl_mix():
    return ExecutionModel(
        ["a", "b", "c", "d"],
        [AlternatesRuntime("a", "b"),
         PrecedesRuntime("b", "c", bound=2),
         DelayedForRuntime("d", "a", 2),
         DeadlineRuntime("a", "c", 4)],
        name="ccsl-mix")


def ccsl_filters():
    return ExecutionModel(
        ["a", "b", "f", "p", "s"],
        [AlternatesRuntime("a", "b"),
         PeriodicOnRuntime("p", "a", 3, 1),
         FilterByRuntime("f", "b", "1(10)"),
         SampledOnRuntime("s", "a", "b")],
        name="ccsl-filters")


def formula_only():
    return ExecutionModel(
        ["x", "y", "z", "free"],
        [FormulaRuntime("sub", Implies(Var("y"), Var("x"))),
         FormulaRuntime("excl", Or(Not(Var("x")), Not(Var("z"))))],
        name="formula-only")


CORPUS = {
    "chain2": lambda: sdf_chain(2),
    "chain3-cap2": lambda: sdf_chain(3, capacity=2),
    "chain4": lambda: sdf_chain(4),
    "chain3-strict": lambda: sdf_chain(3, capacity=2, variant="strict"),
    "chain3-multiport": lambda: sdf_chain(3, capacity=2,
                                          variant="multiport"),
    "forkjoin": lambda: sdf_forkjoin(),
    "forkjoin-cap2": lambda: sdf_forkjoin(capacity=2),
    "ccsl-mix": ccsl_mix,
    "ccsl-filters": ccsl_filters,
    "formula-only": formula_only,
    "ccsl-spec": lambda: load(CcslSpec(
        "spec", events=["a", "b", "c"],
        constraints=[("Alternates", ["a", "b"]),
                     ("BoundedPrecedes", ["b", "c", 1])])).execution_model,
}


class TestCorpusEquivalence:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_full_space(self, name):
        report = assert_equivalent(CORPUS[name](), max_states=20_000)
        assert report["agree"]
        assert report["fixpoint"]["states"] == report["states"]

    @pytest.mark.parametrize("name", ["chain3-cap2", "forkjoin",
                                      "ccsl-mix"])
    def test_include_empty(self, name):
        assert_equivalent(CORPUS[name](), include_empty=True)

    @pytest.mark.parametrize("name", ["chain3-cap2", "forkjoin"])
    def test_maximal_only(self, name):
        assert_equivalent(CORPUS[name](), maximal_only=True)

    def test_mismatch_is_reported_not_hidden(self):
        # sanity of the harness itself: a cross_check report carries the
        # metrics it compared
        report = cross_check(sdf_chain(2))
        assert report["states"] > 0
        assert report["mismatches"] == []


class TestPropertyCrossCheck:
    """The property battery rides every cross_check: both ctl backends
    must agree on verdicts and witnesses for every corpus model."""

    def test_report_carries_property_results(self):
        report = cross_check(sdf_chain(3, capacity=2))
        assert report["agree"]
        battery = report["properties"]
        assert len(battery) == 10
        verdicts = {entry["verdict"] for entry in battery}
        assert verdicts <= {"holds", "fails"}  # complete space: definitive
        assert any(entry["witness"] for entry in battery)

    def test_deadlocking_model_battery(self):
        from repro.ccsl import DelayedForRuntime
        model = ExecutionModel(
            ["a", "b"],
            [PrecedesRuntime("a", "b", bound=1),
             DelayedForRuntime("b", "a", 3)],
            name="deadlocker")
        report = assert_equivalent(model)
        deadlock_entries = {entry["property"]: entry["verdict"]
                            for entry in report["properties"]}
        assert deadlock_entries["EF deadlock"] == "holds"
        assert deadlock_entries["AG !deadlock"] == "fails"


def _doc(verdict, truncated=False, trace=None, kind="witness"):
    """A hand-written ``CheckResult.to_doc()`` document."""
    doc = {"verdict": verdict, "truncated": truncated, "states": 3}
    if trace is not None:
        doc["witness_kind"] = kind
        doc["trace"] = trace
    return doc


#: (row, backend documents, expected finding kinds) for the shared
#: property rule, over an ``Alternates(a, b)`` pair
RULE_TABLE = [
    ("unknown-on-truncated-is-sound",
     {"explicit": _doc("unknown", truncated=True),
      "symbolic": _doc("holds")},
     []),
    ("unknown-on-complete-exploration",
     {"explicit": _doc("unknown"), "symbolic": _doc("holds")},
     ["disagreement"]),
    ("definitive-verdicts-differ",
     {"explicit": _doc("holds"), "symbolic": _doc("fails")},
     ["disagreement"]),
    ("witness-kind-differs-on-complete-run",
     {"explicit": _doc("holds", trace=[["a"]], kind="witness"),
      "symbolic": _doc("holds", trace=[["a"]], kind="counterexample")},
     ["witness"]),
    ("witness-steps-differ-on-complete-run",
     {"explicit": _doc("holds", trace=[["a"]]),
      "symbolic": _doc("holds", trace=[["a"], ["b"]])},
     ["witness"]),
    ("explicit-alone-on-complete-run",
     {"explicit": _doc("holds", trace=[["a"]])},
     []),
    ("explicit-trace-differs-on-truncated-run",
     {"explicit": _doc("holds", truncated=True, trace=[["a"]]),
      "symbolic": _doc("holds", trace=[["a"], ["b"]])},
     []),
    ("trace-names-an-unknown-event",
     {"explicit": _doc("unknown", truncated=True),
      "symbolic": _doc("holds", trace=[["no.such.event"]])},
     ["witness"]),
    ("trace-is-not-a-schedule-prefix",
     {"explicit": _doc("unknown", truncated=True),
      "symbolic": _doc("holds", trace=[["b"]])},
     ["witness"]),
]


class TestPropertyRule:
    """The one property rule every harness applies, row by row."""

    @pytest.mark.parametrize("row, docs, expected", RULE_TABLE,
                             ids=[row[0] for row in RULE_TABLE])
    def test_rule_table(self, row, docs, expected):
        model = ExecutionModel(["a", "b"], [AlternatesRuntime("a", "b")],
                               name="pair")
        findings = property_findings(model, docs)
        assert [kind for kind, _detail in findings] == expected, findings


class TestCrossCheckIsStrict:
    """``cross_check`` applies the full rule: witness kinds are
    compared, and an unreplayable witness is a mismatch, not a crash."""

    def _patch_explicit(self, monkeypatch, alter):
        real_check_space = ctl.check_space

        def altered(space, prop, witness=True):
            result = real_check_space(space, prop, witness=witness)
            if result.witness_steps is not None:
                alter(result)
            return result

        monkeypatch.setattr(ctl, "check_space", altered)

    def test_altered_witness_kind_is_a_mismatch(self, monkeypatch):
        def flip_kind(result):
            result.witness_kind = ("counterexample"
                                   if result.witness_kind == "witness"
                                   else "witness")

        self._patch_explicit(monkeypatch, flip_kind)
        report = cross_check(sdf_chain(3, capacity=2))
        assert report["mismatches"]
        assert all(m.startswith("witness on ") for m in report["mismatches"])

    def test_unreplayable_witness_is_a_mismatch(self, monkeypatch):
        def fabricate(result):
            result.witness_steps = [frozenset({"no.such.event"})]

        self._patch_explicit(monkeypatch, fabricate)
        report = cross_check(sdf_chain(3, capacity=2))
        assert not report["agree"]
        assert any("not a valid schedule prefix" in m
                   for m in report["mismatches"])


class TestHarnessChecksTheChecker:
    """``cross_check`` reads the sets the symbolic checker evaluates
    every check with, so a fault in a checker atom is a mismatch even
    where no checked property reads that atom."""

    def test_empty_deadlock_set_is_a_mismatch(self, monkeypatch):
        class FaultyChecker(ctl._SymbolicChecker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.dead = self.system.bdd.zero

        monkeypatch.setattr(ctl, "_SymbolicChecker", FaultyChecker)
        report = cross_check(CORPUS["chain3-strict"](), properties=[])
        assert any(m.startswith("deadlock count")
                   for m in report["mismatches"]), report["mismatches"]

    def test_empty_occurs_atom_is_a_mismatch(self, monkeypatch):
        model = CORPUS["chain3-cap2"]()
        last = ctl.Occurs(sorted(model.events)[-1])

        class FaultyChecker(ctl._SymbolicChecker):
            def _eval(self, prop):
                if prop == last:
                    return self.system.bdd.zero
                return super()._eval(prop)

        monkeypatch.setattr(ctl, "_SymbolicChecker", FaultyChecker)
        report = cross_check(model)
        assert any(m.startswith("dead events")
                   for m in report["mismatches"]), report["mismatches"]


class TestNonEncodableModels:
    def make_unbounded(self):
        return ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")],
                              name="unbounded")

    def test_symbolic_strategy_raises(self):
        model = self.make_unbounded()
        with pytest.raises(SymbolicEncodingError, match="closure bound"):
            model.kernel.transition_system(model)

    def test_auto_falls_back_to_explicit(self):
        model = self.make_unbounded()
        result = ctl.check(model, "AG !deadlock", strategy="auto",
                           max_states=50)
        assert result.strategy == "explicit"
        assert result.truncated  # unbounded counter, budget-truncated
