"""MoCCML rules: the exact bounded local walk over automaton instances."""

from repro.lint import lint_handle
from repro.lint.rules_ccsl import leaf_runtimes
from repro.lint.rules_moccml import local_walk
from repro.moccml.semantics.automata_rt import AutomatonRuntime
from repro.workbench import MoccmlSpec, load

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


def moccml(name, events, constraints):
    return load(MoccmlSpec(name=name, events=events,
                           constraints=constraints,
                           library_text=LIBRARY))


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


class TestWalkBounds:
    def test_oversized_alphabet_skips_the_walk(self):
        class FatRuntime:
            constrained_events = frozenset(f"e{i}" for i in range(9))

        assert local_walk(FatRuntime()) is None
