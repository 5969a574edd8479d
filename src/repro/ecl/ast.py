"""Document model for ECL mappings."""

from __future__ import annotations

from typing import Union

from repro.errors import MappingError
from repro.iexpr.ast import IntExpr
from repro.kernel.names import check_identifier


class Navigation:
    """A navigation argument: a dotted path from ``self``.

    The final segment may denote either an ECL-defined event
    (``self.outputPort.write``) or an integer attribute
    (``self.inputPort.rate``); the weaver disambiguates against the
    declaration's parameter kinds.
    """

    __slots__ = ("path",)

    def __init__(self, path: str):
        if not path:
            raise MappingError("empty navigation path")
        self.path = path

    def segments(self) -> list[str]:
        parts = [part for part in self.path.split(".") if part]
        if parts and parts[0] == "self":
            parts = parts[1:]
        return parts

    def __eq__(self, other):
        return isinstance(other, Navigation) and self.path == other.path

    def __hash__(self):
        return hash(("nav", self.path))

    def __repr__(self):
        return self.path


class IntLiteral:
    """A literal integer argument."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    def __eq__(self, other):
        return isinstance(other, IntLiteral) and self.value == other.value

    def __hash__(self):
        return hash(("lit", self.value))

    def __repr__(self):
        return str(self.value)


#: Argument of a relation call.
Argument = Union[Navigation, IntLiteral, IntExpr]


class RelationCall:
    """A constraint instantiation: name + arguments."""

    __slots__ = ("constraint_name", "arguments")

    def __init__(self, constraint_name: str, arguments: list[Argument]):
        self.constraint_name = constraint_name
        self.arguments = list(arguments)

    def __repr__(self):
        args = ", ".join(repr(a) for a in self.arguments)
        return f"{self.constraint_name}({args})"


class EclEventDef:
    """``def: name : Event`` — an event on every instance of the context."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = check_identifier(name, "event name")

    def __repr__(self):
        return f"def: {self.name} : Event"


class EclInvariant:
    """``inv Name: Relation C(args...)`` — a constraint per instance."""

    __slots__ = ("name", "call")

    def __init__(self, name: str, call: RelationCall):
        self.name = check_identifier(name, "invariant name")
        self.call = call

    def __repr__(self):
        return f"inv {self.name}: {self.call!r}"


class EclContext:
    """A ``context Metaclass`` block: event defs plus invariants."""

    def __init__(self, metaclass_name: str,
                 event_defs: list[EclEventDef] | None = None,
                 invariants: list[EclInvariant] | None = None):
        self.metaclass_name = check_identifier(metaclass_name,
                                               "context metaclass")
        self.event_defs = list(event_defs or [])
        self.invariants = list(invariants or [])

    def __repr__(self):
        return (f"EclContext({self.metaclass_name}, "
                f"{len(self.event_defs)} events, "
                f"{len(self.invariants)} invariants)")


class EclDocument:
    """A full mapping document: an ordered list of contexts."""

    def __init__(self, contexts: list[EclContext] | None = None,
                 name: str = "mapping"):
        self.name = name
        self.contexts = list(contexts or [])

    def context_for(self, metaclass_name: str) -> EclContext | None:
        for context in self.contexts:
            if context.metaclass_name == metaclass_name:
                return context
        return None

    def __repr__(self):
        return f"EclDocument({self.name!r}, {len(self.contexts)} contexts)"
