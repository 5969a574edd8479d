"""Semantic corner cases: empty-step transitions, trigger-free
transitions, final states, and include_empty exploration."""


from repro.engine import ExecutionModel, explore
from repro.moccml import LibraryRegistry
from repro.moccml.semantics import AutomatonRuntime
from repro.moccml.text import parse_library

WATCHDOG = """
// fires 'alarm' only while 'kick' stays away: an unless-only trigger
// can fire on a completely silent step.
library WatchdogLibrary {
  declaration Watchdog(kick: event, alarm: event)
  automaton WatchdogDef implements Watchdog nostutter {
    var misses: int = 0
    initial final state Armed
    state Tripped
    transition Armed -> Armed when {kick} [misses >= 0] / misses = 0
    transition Armed -> Tripped unless {kick, alarm} [misses >= 0] / misses += 1
    transition Tripped -> Armed when {alarm} unless {kick}
  }
}
"""


def watchdog_runtime():
    library = parse_library(WATCHDOG)
    definition = library.definition_for("Watchdog")
    return AutomatonRuntime(definition, {"kick": "kick", "alarm": "alarm"},
                            label="dog")


class TestUnlessOnlyTransitions:
    def test_empty_step_fires_transition(self):
        runtime = watchdog_runtime()
        # an empty step (no kick, no alarm) IS acceptable and moves state
        formula = runtime.step_formula()
        assert formula.evaluate({"kick": False, "alarm": False})
        runtime.advance(frozenset())
        assert runtime.current_state == "Tripped"
        assert runtime.variables == {"misses": 1}

    def test_kick_keeps_armed(self):
        runtime = watchdog_runtime()
        runtime.advance(frozenset({"kick"}))
        assert runtime.current_state == "Armed"

    def test_is_accepting_tracks_final_states(self):
        runtime = watchdog_runtime()
        assert runtime.is_accepting()
        runtime.advance(frozenset())
        assert not runtime.is_accepting()  # Tripped is not final
        runtime.advance(frozenset({"alarm"}))
        assert runtime.is_accepting()

    def test_include_empty_exploration_reaches_tripped(self):
        runtime = watchdog_runtime()
        model = ExecutionModel(["kick", "alarm"], [runtime])
        without_empty = explore(model, include_empty=False)
        with_empty = explore(model, include_empty=True)
        # the Tripped state is reachable only through the empty step
        assert with_empty.n_states > without_empty.n_states
        assert not all(with_empty.accepting)


class TestTriggerFreeTransition:
    TEXT = """
    library FreeLibrary {
      declaration Free(a: event)
      automaton FreeDef implements Free nostutter {
        initial final state S
        transition S -> S
      }
    }
    """

    def test_accepts_everything(self):
        library = parse_library(self.TEXT)
        runtime = AutomatonRuntime(library.definition_for("Free"),
                                   {"a": "a"})
        from repro.boolalg.expr import TRUE
        assert runtime.step_formula() is TRUE
        runtime.advance(frozenset())
        runtime.advance(frozenset({"a"}))
        assert runtime.current_state == "S"


class TestKernelLibrarySmoke:
    """Every kernel declaration instantiates and produces a formula."""

    def test_instantiate_all(self):
        from repro.ccsl.library import kernel_library
        registry = LibraryRegistry([kernel_library()])
        library = registry.library("CCSLKernel")
        sample_args = {
            "event": lambda i: f"e{i}",
            "int": lambda i: 1,
        }
        for declaration in library.declarations():
            arguments = [sample_args[p.kind](index)
                         for index, p in enumerate(declaration.parameters)]
            if declaration.name == "FilterBy":
                arguments = ["e0", "e1", 0, 0, 1, 1]  # valid word encoding
            elif declaration.name == "PeriodicOn":
                arguments = ["e0", "e1", 2, 0]  # offset < period
            runtime = registry.instantiate(declaration.name, arguments)
            formula = runtime.step_formula()
            assert formula is not None
            assert runtime.clone().state_key() == runtime.state_key()
