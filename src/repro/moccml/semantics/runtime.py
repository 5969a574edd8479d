"""Constraint runtime protocol and generic runtimes.

A :class:`ConstraintRuntime` is one live constraint instance inside an
execution model. A MoCC author implements four methods:

* ``step_formula()`` — a boolean expression over event variables
  describing which steps this constraint accepts *now*;
* ``advance(step)`` — once a step satisfying the global conjunction is
  chosen, update internal state (automaton state, counters);
* ``state_key()`` — a hashable key capturing the internal state exactly:
  the exhaustive explorer hashes global configurations as the tuple of
  all runtimes' keys;
* ``clone()`` — an independent copy, so the engine can branch.

``is_accepting()`` (final states) defaults to ``True``.
``step_formula()`` and ``advance()`` may read only the step's
``constrained_events``: exploration tabulates each runtime's transitions
per local state and per step projected on that alphabet
(:mod:`repro.engine.tables`).

The one optional refinement is ``snapshot()``/``restore()``, a
lightweight alternative to ``clone()``: ``snapshot()`` captures the
mutable state as a cheap (ideally immutable) token, ``restore()``
rewinds to it, and a token must stay valid across any number of
restores. The defaults fall back to ``clone()`` semantics; stateful
runtimes override them with plain values, which the local tables store
once per local state.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.boolalg.expr import And, BExpr
from repro.errors import SemanticsError


class ConstraintRuntime:
    """Base class of live constraint instances."""

    def __init__(self, label: str, constrained_events: Iterable[str]):
        self.label = label
        self.constrained_events = frozenset(constrained_events)

    # -- protocol ---------------------------------------------------------------

    def step_formula(self) -> BExpr:
        """Boolean expression over event variables accepted at this step."""
        raise NotImplementedError

    def advance(self, step: frozenset[str]) -> None:
        """Commit *step* (a set of occurring event names)."""
        raise NotImplementedError

    def state_key(self) -> Hashable:
        """A hashable snapshot of the internal state."""
        raise NotImplementedError

    def clone(self) -> "ConstraintRuntime":
        """An independent copy sharing no mutable state."""
        raise NotImplementedError

    def snapshot(self) -> Hashable:
        """A cheap token capturing the mutable state (see module doc).

        The fallback snapshots via :meth:`clone`; stateful runtimes
        should override with a plain value.
        """
        return self.clone()

    def restore(self, token) -> None:
        """Rewind to a state captured by :meth:`snapshot`.

        The token must remain reusable afterwards (restores can happen
        any number of times from the same token).
        """
        if not isinstance(token, ConstraintRuntime):
            raise SemanticsError(
                f"{self.label}: restore expected a clone-based snapshot, "
                f"got {token!r}")
        self.__dict__.update(token.clone().__dict__)

    def is_accepting(self) -> bool:
        """Whether the current state is accepting (final). Defaults True."""
        return True

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"


class FormulaRuntime(ConstraintRuntime):
    """A stateless constraint: the same formula at every step.

    Covers the purely relational CCSL constraints — sub-event
    (``e1 => e2``), coincidence, exclusion, union/intersection
    definitions — whose acceptance never depends on history.
    """

    def __init__(self, label: str, formula: BExpr,
                 constrained_events: Iterable[str] | None = None):
        events = (frozenset(constrained_events)
                  if constrained_events is not None else formula.support())
        super().__init__(label, events)
        self._formula = formula
        # support() walks the expression tree; the formula is immutable,
        # so compute it once — advance() evaluates it every step
        self._support = tuple(formula.support())

    def step_formula(self) -> BExpr:
        return self._formula

    def advance(self, step: frozenset[str]) -> None:
        if not self._formula.evaluate(
                {name: name in step for name in self._support}):
            raise SemanticsError(
                f"{self.label}: step {sorted(step)} violates {self._formula!r}")

    def state_key(self) -> Hashable:
        return (self.label, "stateless")

    def clone(self) -> "FormulaRuntime":
        return FormulaRuntime(self.label, self._formula,
                              self.constrained_events)

    def snapshot(self) -> Hashable:
        return None

    def restore(self, token) -> None:
        pass  # stateless


class CompositeRuntime(ConstraintRuntime):
    """Conjunction of child runtimes — a declarative definition instance."""

    def __init__(self, label: str, children: list[ConstraintRuntime]):
        events: frozenset[str] = frozenset()
        for child in children:
            events |= child.constrained_events
        super().__init__(label, events)
        self.children = list(children)

    def step_formula(self) -> BExpr:
        return And(*(child.step_formula() for child in self.children))

    def advance(self, step: frozenset[str]) -> None:
        for child in self.children:
            child.advance(step)

    def state_key(self) -> Hashable:
        return (self.label,) + tuple(child.state_key() for child in self.children)

    def clone(self) -> "CompositeRuntime":
        return CompositeRuntime(self.label,
                                [child.clone() for child in self.children])

    def snapshot(self) -> Hashable:
        return tuple(child.snapshot() for child in self.children)

    def restore(self, token) -> None:
        if not isinstance(token, tuple) or len(token) != len(self.children):
            raise SemanticsError(
                f"{self.label}: snapshot arity mismatch")
        for child, child_token in zip(self.children, token):
            child.restore(child_token)

    def is_accepting(self) -> bool:
        return all(child.is_accepting() for child in self.children)
