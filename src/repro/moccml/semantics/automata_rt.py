"""Runtime semantics of constraint automata (paper §II-C).

The boolean expression of an automaton instance is the disjunction, over
the outgoing transitions of the current state whose guard holds, of::

    /\\ trueTriggers  /\\  /\\ ¬falseTriggers

plus — unless ``allow_stutter`` is disabled — a stutter disjunct in
which every constrained event is absent and the state is unchanged
(DESIGN.md, semantic clarification 1).

When the chosen step enables a transition, the automaton moves to its
target and runs its actions; ties between simultaneously enabled
transitions are broken by declaration order (a diagnostic for such
nondeterminism is available in :mod:`repro.moccml.validate`).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.boolalg.expr import And, BExpr, FALSE, Not, Or, Var
from repro.errors import MoccmlError, SemanticsError
from repro.moccml.automata import ConstraintAutomataDefinition, Transition


class AutomatonRuntime:
    """One live instance of a constraint automaton definition."""

    def __init__(self, definition: ConstraintAutomataDefinition,
                 bindings: Mapping[str, str | int],
                 label: str | None = None):
        # bind parameters -------------------------------------------------
        self.definition = definition
        declaration = definition.declaration
        self._event_map: dict[str, str] = {}
        self._params: dict[str, int] = {}
        for param in declaration.parameters:
            if param.name not in bindings:
                raise MoccmlError(
                    f"missing binding for parameter {param.name!r} of "
                    f"{declaration.name!r}")
            value = bindings[param.name]
            if param.kind == "event":
                if not isinstance(value, str):
                    raise MoccmlError(
                        f"parameter {param.name!r} expects an event name, "
                        f"got {value!r}")
                self._event_map[param.name] = value
            else:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise MoccmlError(
                        f"parameter {param.name!r} expects an int, "
                        f"got {value!r}")
                self._params[param.name] = value
        extra = set(bindings) - {p.name for p in declaration.parameters}
        if extra:
            raise MoccmlError(
                f"unknown parameter(s) {sorted(extra)} for "
                f"{declaration.name!r}")

        self.label = label or f"{definition.name}@{id(self):x}"
        self.constrained_events = frozenset(self._event_map.values())
        #: guard-scan memo, shared with clones (see _enabled_guards)
        self._guard_cache: dict = {}

        # initial state ----------------------------------------------------
        self.current_state = definition.initial_state
        self._vars: dict[str, int] = {}
        init_env = dict(self._params)
        for var in definition.variables:
            self._vars[var.name] = var.init.evaluate(init_env)
            init_env[var.name] = self._vars[var.name]
        for action in definition.initial_actions:
            env = self._environment()
            action.apply(env)
            self._writeback(env)

    # -- environment helpers ---------------------------------------------------

    def _environment(self) -> dict[str, int]:
        env = dict(self._params)
        env.update(self._vars)
        return env

    def _writeback(self, env: dict[str, int]) -> None:
        for name in self._vars:
            self._vars[name] = env[name]

    def event_of(self, param_name: str) -> str:
        """Engine event name bound to an event parameter."""
        try:
            return self._event_map[param_name]
        except KeyError:
            raise MoccmlError(
                f"{self.label}: no event parameter {param_name!r}") from None

    @property
    def variables(self) -> dict[str, int]:
        """Current values of the local variables (copy)."""
        return dict(self._vars)

    # -- semantics --------------------------------------------------------------

    def _guard_holds(self, transition: Transition) -> bool:
        if transition.guard is None:
            return True
        return transition.guard.evaluate(self._environment())

    def _enabled_guards(self) -> tuple[int, ...]:
        """Indices of outgoing transitions whose guard currently holds.

        Memoized by (state, variable values) — exact, because guards
        read only the bound parameters (fixed per instance) and the
        local variables. The memo is shared with clones (identical
        parameters), so every caller over one model family scans each
        guard valuation once: the local tables' fills (``step_formula``
        on admission, ``advance`` on each new edge), lint's MoCCML local
        walk (``enabled_transitions``) and the live model's queries.
        """
        key = (self.current_state, tuple(self._vars.values()))
        cached = self._guard_cache.get(key)
        if cached is None:
            env = self._environment()
            cached = tuple(
                index for index, transition in enumerate(
                    self.definition.outgoing(self.current_state))
                if transition.guard is None
                or transition.guard.evaluate(env))
            if len(self._guard_cache) >= 4096:
                self._guard_cache.clear()  # unbounded-counter backstop
            self._guard_cache[key] = cached
        return cached

    def _transition_formula(self, transition: Transition) -> BExpr:
        literals: list[BExpr] = []
        for event_param in transition.trigger.true_triggers:
            literals.append(Var(self.event_of(event_param)))
        for event_param in transition.trigger.false_triggers:
            literals.append(Not(Var(self.event_of(event_param))))
        return And(*literals)

    def _stutter_formula(self) -> BExpr:
        return And(*(Not(Var(name)) for name in sorted(self.constrained_events)))

    def step_formula(self) -> BExpr:
        """Disjunction over enabled outgoing transitions (+ stutter)."""
        outgoing = self.definition.outgoing(self.current_state)
        disjuncts: list[BExpr] = [
            self._transition_formula(outgoing[index])
            for index in self._enabled_guards()]
        if self.definition.allow_stutter:
            disjuncts.append(self._stutter_formula())
        if not disjuncts:
            return FALSE
        return Or(*disjuncts)

    def enabled_transitions(self, step: frozenset[str]) -> list[Transition]:
        """All transitions of the current state enabled by *step*."""
        outgoing = self.definition.outgoing(self.current_state)
        event_of = self.event_of
        result = []
        for index in self._enabled_guards():
            transition = outgoing[index]
            trigger = transition.trigger
            if all(event_of(p) in step for p in trigger.true_triggers) \
                    and not any(event_of(p) in step
                                for p in trigger.false_triggers):
                result.append(transition)
        return result

    def advance(self, step: frozenset[str]) -> None:
        """Fire the first enabled transition, or stutter."""
        enabled = self.enabled_transitions(step)
        if enabled:
            transition = enabled[0]
            env = self._environment()
            for action in transition.actions:
                action.apply(env)
            self._writeback(env)
            self.current_state = transition.target
            return
        if self.definition.allow_stutter and not (step & self.constrained_events):
            return
        raise SemanticsError(
            f"{self.label}: step {sorted(step)} is not acceptable in state "
            f"{self.current_state!r} (vars {self._vars})")

    # -- exploration support ------------------------------------------------------

    def state_key(self) -> Hashable:
        return (self.label, self.current_state,
                tuple(sorted(self._vars.items())))

    def snapshot(self) -> Hashable:
        return (self.current_state, tuple(self._vars.items()))

    def restore(self, token) -> None:
        state, variables = token
        self.current_state = state
        self._vars = dict(variables)

    def clone(self) -> "AutomatonRuntime":
        copy = object.__new__(AutomatonRuntime)
        copy.definition = self.definition
        copy._event_map = self._event_map  # immutable after init
        copy._params = self._params
        copy.label = self.label
        copy.constrained_events = self.constrained_events
        copy.current_state = self.current_state
        copy._vars = dict(self._vars)
        copy._guard_cache = self._guard_cache  # exact memo, shareable
        return copy

    def is_accepting(self) -> bool:
        return self.current_state in self.definition.effective_final_states()

    def __repr__(self):
        return (f"AutomatonRuntime({self.label}, state={self.current_state}, "
                f"vars={self._vars})")
