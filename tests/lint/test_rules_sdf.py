"""SDF rules: balance equations, schedulability, dead actors."""

from repro.lint import lint_handle
from repro.lint.rules_sdf import component_doc
from repro.sdf.analysis import class_s_schedule, components
from repro.workbench import load, source_from_doc
from tests.lint.conftest import INCONSISTENT, STARVED_CYCLE


def rules_of(handle, rule):
    return [d for d in lint_handle(handle).diagnostics if d.rule == rule]


class TestBalanceEquations:
    def test_inconsistent_graph_is_sdf001(self):
        handle = load(INCONSISTENT)
        findings = rules_of(handle, "SDF001")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert findings[0].data["agents"] == ["a", "b"]
        assert findings[0].data["confirm"]["kind"] == "deadlock"

    def test_consistent_graph_has_rates(self, clean_chain):
        assert rules_of(clean_chain, "SDF001") == []
        [component] = components(clean_chain.application)
        assert component.repetition == {"src": 1, "dst": 1}

    def test_multirate_vector(self):
        handle = load("""
        application multirate {
          agent fast
          agent slow
          place fast -> slow push 1 pop 3 capacity 3
        }
        """)
        [component] = components(handle.application)
        assert component.repetition == {"fast": 3, "slow": 1}
        [info] = rules_of(handle, "SDF004")
        assert info.data["repetition"] == {"fast": 3, "slow": 1}


class TestSchedulability:
    def test_starved_cycle_is_sdf002(self):
        handle = load(STARVED_CYCLE)
        findings = rules_of(handle, "SDF002")
        assert len(findings) == 1
        assert findings[0].data["confirm"]["kind"] == "deadlock"

    def test_primed_cycle_is_clean(self):
        handle = load("""
        application primed {
          agent a
          agent b
          place a -> b push 1 pop 1 capacity 2
          place b -> a push 1 pop 1 capacity 2 delay 1
        }
        """)
        assert rules_of(handle, "SDF002") == []
        [component] = components(handle.application)
        assert class_s_schedule(component.places, component.repetition,
                                bounded=False) is not None


class TestDeadActors:
    def test_self_starved_agent_is_sdf003(self):
        handle = load("""
        application selfloop {
          agent a
          agent b
          place a -> b push 1 pop 1 capacity 2
          place b -> b push 1 pop 2 capacity 4
        }
        """)
        [finding] = rules_of(handle, "SDF003")
        assert finding.data["agent"] == "b"
        assert finding.data["confirm"] == {"kind": "dead-event",
                                           "event": "b.start"}

    def test_live_graph_has_no_dead_actors(self, clean_chain):
        assert rules_of(clean_chain, "SDF003") == []


class TestComponentProjection:
    def test_component_doc_reloads_standalone(self):
        handle = load("""
        application twocomp {
          agent a
          agent b
          agent c
          agent d
          place a -> b push 1 pop 1 capacity 2
          place c -> d push 2 pop 1 capacity 4
          place c -> d push 1 pop 1 capacity 4
        }
        """)
        assert [c.agents for c in components(handle.application)] == [
            ["a", "b"], ["c", "d"]]
        # only the second component is defective; its diagnostic marks
        # itself component-local so the cross-check projects it
        [finding] = rules_of(handle, "SDF001")
        assert finding.data["agents"] == ["c", "d"]
        assert finding.data["confirm"]["project"] is True
        projected = load(source_from_doc(
            component_doc(handle, ["c", "d"])))
        assert sorted({e.split(".")[0]
                       for e in projected.execution_model.events
                       if e.endswith(".start")}) == ["c", "d"]
