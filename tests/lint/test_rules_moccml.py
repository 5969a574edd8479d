"""MoCCML rules: the exact bounded local walk over automaton instances."""

from repro.engine.tables import LocalTable
from repro.lint import lint_handle
from repro.lint.rules_ccsl import leaf_runtimes
from repro.lint.rules_moccml import local_walk
from repro.moccml.semantics.automata_rt import AutomatonRuntime
from repro.workbench import MoccmlSpec, load
from tests.lint.test_artifact_pins import lint_corpus

LIBRARY = """
library LintLib {
  declaration Gate(a: event, b: event)
  automaton GateDef implements Gate {
    initial state Idle
    state Busy
    state Orphan
    transition Idle -> Busy when {a}
    transition Busy -> Idle when {b}
  }
  declaration Fork(a: event)
  automaton ForkDef implements Fork {
    initial state S
    state L
    transition S -> L when {a}
    transition S -> S when {a}
  }
}
"""


#: transitions without ``when`` events fire on the empty projection
EMPTY_STEP_LIBRARY = """
library EmptyStepLib {
  declaration Hop(a: event, b: event)
  automaton HopDef implements Hop {
    initial state S1
    state S2
    transition S1 -> S2 unless {a, b}
    transition S2 -> S1 when {a} unless {b}
  }
  declaration Fork(a: event, b: event)
  automaton ForkDef implements Fork {
    initial state S1
    state S2
    transition S1 -> S2 unless {a}
    transition S1 -> S1 unless {b}
  }
}
"""


def moccml(name, events, constraints, library=LIBRARY):
    return load(MoccmlSpec(name=name, events=events,
                           constraints=constraints,
                           library_text=library))


def hop():
    return moccml("hop", ["a", "b", "c"], [("Hop", ("a", "b"))],
                  EMPTY_STEP_LIBRARY)


def fork():
    return moccml("fork", ["a", "b"], [("Fork", ("a", "b"))],
                  EMPTY_STEP_LIBRARY)


def rules_of(handle, rule):
    return [d for d in lint_handle(handle).diagnostics if d.rule == rule]


class TestUnreachableStates:
    def test_orphan_state_is_moc001(self):
        handle = moccml("gated", ["x", "y"], [("Gate", ("x", "y"))])
        [finding] = rules_of(handle, "MOC001")
        assert finding.severity == "warning"
        assert finding.data["states"] == ["Orphan"]

    def test_walk_reaches_both_live_states(self):
        handle = moccml("gated", ["x", "y"], [("Gate", ("x", "y"))])
        [runtime] = [runtime
                     for runtime in leaf_runtimes(handle.execution_model)
                     if isinstance(runtime, AutomatonRuntime)]
        walk = local_walk(runtime)
        assert walk["states"] == {"Idle", "Busy"}


class TestOverlappingGuards:
    def test_double_transition_is_moc002(self):
        handle = moccml("forked", ["x"], [("Fork", ("x",))])
        findings = rules_of(handle, "MOC002")
        assert findings, "the two S-transitions overlap on {x}"
        assert findings[0].data["state"] == "S"
        assert findings[0].data["step"] == ["x"]
        assert "first declared wins" in findings[0].message

    def test_deterministic_automaton_is_clean(self):
        handle = moccml("gated", ["x", "y"], [("Gate", ("x", "y"))])
        assert rules_of(handle, "MOC002") == []


class TestEmptyProjection:
    def test_unless_only_transition_reaches_its_target(self):
        # S1 -> S2 fires on step {c}, whose projection on Hop is empty
        assert rules_of(hop(), "MOC001") == []

    def test_overlap_on_the_empty_step_is_moc002(self):
        [finding] = rules_of(fork(), "MOC002")
        assert finding.data["state"] == "S1"
        assert finding.data["step"] == []
        assert finding.data["transitions"] == ["S1->S2", "S1->S1"]

    def test_walk_matches_the_engine_closure(self):
        handles = [*lint_corpus().values(), hop(), fork()]
        runtimes = [runtime for handle in handles
                    if handle.execution_model is not None
                    for runtime in leaf_runtimes(handle.execution_model)
                    if isinstance(runtime, AutomatonRuntime)]
        assert len(runtimes) > 200
        for runtime in runtimes:
            closed = LocalTable(0, runtime).close(2048)
            assert local_walk(runtime)["states"] == {
                key[1] for key in closed.keys}, runtime.label


class TestWalkBounds:
    def test_oversized_alphabet_skips_the_walk(self):
        class FatRuntime:
            constrained_events = frozenset(f"e{i}" for i in range(9))

        assert local_walk(FatRuntime()) is None
