"""Constraint automata definitions (paper §II-B1, Fig. 2 right-hand side).

A :class:`ConstraintAutomataDefinition` owns a set of :class:`State`\\ s
with a single initial state, local integer :class:`VariableDecl`\\ s, and
:class:`Transition`\\ s. Each transition carries a :class:`Trigger` made
of two event sets — *trueTriggers* (events that must be present) and
*falseTriggers* (events that must be absent) — an optional guard over
the integer variables/parameters, and assignment actions executed when
the transition fires.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import MoccmlError
from repro.iexpr.ast import Assign, GuardExpr, IntConst, IntExpr
from repro.kernel.names import check_identifier
from repro.moccml.declarations import ConstraintDeclaration


class State:
    """A named automaton state."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = check_identifier(name, "state name")

    def __eq__(self, other):
        return isinstance(other, State) and self.name == other.name

    def __hash__(self):
        return hash(("state", self.name))

    def __repr__(self):
        return f"State({self.name})"


class VariableDecl:
    """A local integer variable with an initial-value expression.

    The initializer may reference the declaration's integer parameters —
    Fig. 3 initializes ``size = itsDelay`` on entry.
    """

    __slots__ = ("name", "init")

    def __init__(self, name: str, init: IntExpr | int = 0):
        self.name = check_identifier(name, "variable name")
        self.init = IntConst(init) if isinstance(init, int) else init

    def __repr__(self):
        return f"var {self.name} = {self.init!r}"


class Trigger:
    """The event condition of a transition.

    The transition may fire only in steps where every *trueTriggers*
    event occurs and no *falseTriggers* event occurs. Both sets refer to
    event parameters of the enclosing declaration.
    """

    __slots__ = ("true_triggers", "false_triggers")

    def __init__(self, true_triggers: Iterable[str] = (),
                 false_triggers: Iterable[str] = ()):
        self.true_triggers = tuple(dict.fromkeys(true_triggers))
        self.false_triggers = tuple(dict.fromkeys(false_triggers))
        overlap = set(self.true_triggers) & set(self.false_triggers)
        if overlap:
            raise MoccmlError(
                f"events {sorted(overlap)} appear in both trueTriggers and "
                f"falseTriggers")

    def events(self) -> frozenset[str]:
        return frozenset(self.true_triggers) | frozenset(self.false_triggers)

    def __repr__(self):
        return ("{" + ", ".join(self.true_triggers) + "}"
                "{" + ", ".join(self.false_triggers) + "}")


class Transition:
    """A guarded transition between two states."""

    __slots__ = ("source", "target", "trigger", "guard", "actions")

    def __init__(self, source: str, target: str,
                 trigger: Optional[Trigger] = None,
                 guard: Optional[GuardExpr] = None,
                 actions: Iterable[Assign] = ()):
        self.source = source
        self.target = target
        self.trigger = trigger if trigger is not None else Trigger()
        self.guard = guard
        self.actions = tuple(actions)

    def __repr__(self):
        parts = [f"{self.source} -> {self.target}", repr(self.trigger)]
        if self.guard is not None:
            parts.append(f"[{self.guard!r}]")
        if self.actions:
            parts.append("/ " + "; ".join(repr(a) for a in self.actions))
        return " ".join(parts)


class ConstraintAutomataDefinition:
    """A constraint automaton implementing a declaration.

    Parameters
    ----------
    name:
        Definition name (``PlaceConstraintDef`` in Fig. 3).
    declaration:
        The :class:`ConstraintDeclaration` this definition implements.
    states:
        State names. Must contain *initial_state*.
    initial_state:
        The single initial state required by the metamodel.
    final_states:
        Accepting states; the metamodel requires at least one, so an
        empty iterable is interpreted as "every state is final" (the
        common case for safety constraints such as Fig. 3).
    variables:
        Local integer variables.
    transitions:
        The transition list; order matters only to break firing ties
        deterministically.
    initial_actions:
        Actions run once at instantiation (Fig. 3's ``/ size = itsDelay``).
    allow_stutter:
        When True (default) the automaton accepts any step in which none
        of its constrained events occurs, without changing state. See
        DESIGN.md, semantic clarification 1.
    """

    def __init__(self, name: str, declaration: ConstraintDeclaration,
                 states: Iterable[str | State], initial_state: str,
                 final_states: Iterable[str] = (),
                 variables: Iterable[VariableDecl] = (),
                 transitions: Iterable[Transition] = (),
                 initial_actions: Iterable[Assign] = (),
                 allow_stutter: bool = True):
        self.name = check_identifier(name, "definition name")
        self.declaration = declaration
        self.states = [s if isinstance(s, State) else State(s) for s in states]
        self.initial_state = initial_state
        self.final_states = tuple(final_states)
        self.variables = list(variables)
        self.transitions = list(transitions)
        self.initial_actions = tuple(initial_actions)
        self.allow_stutter = bool(allow_stutter)

    kind = "automaton"

    def state_names(self) -> list[str]:
        return [state.name for state in self.states]

    def outgoing(self, state_name: str) -> list[Transition]:
        """Transitions leaving *state_name*, in declaration order.

        The per-state lists are computed once and cached — this is on
        the engine's per-step hot path (guard scans, advance).
        """
        cache = getattr(self, "_outgoing_cache", None)
        if cache is None or self._outgoing_count != len(self.transitions):
            cache = {}
            for transition in self.transitions:
                cache.setdefault(transition.source, []).append(transition)
            self._outgoing_cache = cache
            self._outgoing_count = len(self.transitions)
        return cache.get(state_name, [])

    def effective_final_states(self) -> frozenset[str]:
        """Final states, defaulting to every state when unspecified."""
        if self.final_states:
            return frozenset(self.final_states)
        return frozenset(self.state_names())

    def __repr__(self):
        return (f"ConstraintAutomataDefinition({self.name} implements "
                f"{self.declaration.name}, {len(self.states)} states, "
                f"{len(self.transitions)} transitions)")
