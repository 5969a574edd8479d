"""Immutable boolean expression AST.

Expressions are built from :class:`Var`, :class:`Const` and the
connectives :func:`Not`, :func:`And`, :func:`Or`, :func:`Implies`,
:func:`Iff`, :func:`Xor`. Constructors perform light, local
simplification (constant folding, flattening, involution) so that the
common constraint compositions stay small; they do not attempt full
canonicalization — that is the BDD's job.

Python operators are overloaded for readability: ``a & b``, ``a | b``,
``~a``, ``a >> b`` (implies), ``a ^ b``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping


class BExpr:
    """Base class of boolean expressions. Instances are immutable."""

    __slots__ = ()

    # -- operator sugar -------------------------------------------------------

    def __and__(self, other: "BExpr") -> "BExpr":
        return And(self, other)

    def __or__(self, other: "BExpr") -> "BExpr":
        return Or(self, other)

    def __invert__(self) -> "BExpr":
        return Not(self)

    def __rshift__(self, other: "BExpr") -> "BExpr":
        return Implies(self, other)

    def __xor__(self, other: "BExpr") -> "BExpr":
        return Xor(self, other)

    # -- core API ----------------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate under a total assignment of the support variables."""
        raise NotImplementedError

    def support(self) -> frozenset[str]:
        """The set of variable names occurring in the expression."""
        raise NotImplementedError

    def substitute(self, bindings: Mapping[str, "BExpr"]) -> "BExpr":
        """Replace variables by expressions, simplifying on the way."""
        raise NotImplementedError

    def restrict(self, assignment: Mapping[str, bool]) -> "BExpr":
        """Partial evaluation: fix some variables to constants."""
        return self.substitute({
            name: (TRUE if value else FALSE)
            for name, value in assignment.items()
        })

    def __bool__(self) -> bool:
        raise TypeError(
            "BExpr has no implicit truth value; use .evaluate(...) or "
            "compare with TRUE/FALSE")


class _Const(BExpr):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, *_args):  # pragma: no cover - defensive
        raise AttributeError("BExpr is immutable")

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.value

    def support(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, bindings: Mapping[str, BExpr]) -> BExpr:
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


#: The constant true expression.
TRUE = _Const(True)
#: The constant false expression.
FALSE = _Const(False)


def Const(value: bool) -> BExpr:
    """Return the shared constant for *value*."""
    return TRUE if value else FALSE


class Var(BExpr):
    """A boolean variable, identified by name (an event's qualified name)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable name must be a non-empty str: {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *_args):  # pragma: no cover - defensive
        raise AttributeError("BExpr is immutable")

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        try:
            return bool(assignment[self.name])
        except KeyError:
            raise KeyError(
                f"assignment is missing variable {self.name!r}") from None

    def support(self) -> frozenset[str]:
        return frozenset((self.name,))

    def substitute(self, bindings: Mapping[str, BExpr]) -> BExpr:
        return bindings.get(self.name, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("var", self.name))

    def __repr__(self) -> str:
        return self.name


class _Not(BExpr):
    __slots__ = ("operand", "_hash")

    def __init__(self, operand: BExpr):
        object.__setattr__(self, "operand", operand)
        # computed once: memo lookups must not re-walk the subtree
        object.__setattr__(self, "_hash", hash(("not", operand)))

    def __setattr__(self, *_args):  # pragma: no cover - defensive
        raise AttributeError("BExpr is immutable")

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def support(self) -> frozenset[str]:
        return self.operand.support()

    def substitute(self, bindings: Mapping[str, BExpr]) -> BExpr:
        return Not(self.operand.substitute(bindings))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Not) and self.operand == other.operand

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"~{self.operand!r}" if isinstance(
            self.operand, (Var, _Const)) else f"~({self.operand!r})"


class _NaryOp(BExpr):
    __slots__ = ("args", "_hash")
    _symbol = "?"

    def __init__(self, args: tuple[BExpr, ...]):
        object.__setattr__(self, "args", args)
        # computed once: memo lookups must not re-walk the subtree
        object.__setattr__(self, "_hash", hash((self._symbol, args)))

    def __setattr__(self, *_args):  # pragma: no cover - defensive
        raise AttributeError("BExpr is immutable")

    def support(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for arg in self.args:
            result |= arg.support()
        return result

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.args == other.args

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = f" {self._symbol} ".join(
            repr(a) if isinstance(a, (Var, _Const, _Not)) else f"({a!r})"
            for a in self.args)
        return inner


class _And(_NaryOp):
    __slots__ = ()
    _symbol = "&"

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return all(arg.evaluate(assignment) for arg in self.args)

    def substitute(self, bindings: Mapping[str, BExpr]) -> BExpr:
        return And(*(arg.substitute(bindings) for arg in self.args))


class _Or(_NaryOp):
    __slots__ = ()
    _symbol = "|"

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return any(arg.evaluate(assignment) for arg in self.args)

    def substitute(self, bindings: Mapping[str, BExpr]) -> BExpr:
        return Or(*(arg.substitute(bindings) for arg in self.args))


# ---------------------------------------------------------------------------
# simplifying constructors
# ---------------------------------------------------------------------------


def Not(operand: BExpr) -> BExpr:
    """Negation with involution and constant folding."""
    if operand is TRUE:
        return FALSE
    if operand is FALSE:
        return TRUE
    if isinstance(operand, _Not):
        return operand.operand
    return _Not(operand)


def _flatten(op_type: type, args: Iterable[BExpr]) -> Iterator[BExpr]:
    for arg in args:
        if type(arg) is op_type:
            yield from arg.args  # type: ignore[attr-defined]
        else:
            yield arg


def And(*args: BExpr) -> BExpr:
    """Conjunction: flattens, folds constants, deduplicates, detects a & ~a."""
    flat: list[BExpr] = []
    seen: set[BExpr] = set()
    for arg in _flatten(_And, args):
        if arg is FALSE:
            return FALSE
        if arg is TRUE or arg in seen:
            continue
        seen.add(arg)
        flat.append(arg)
    for arg in flat:
        if Not(arg) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return _And(tuple(flat))


def Or(*args: BExpr) -> BExpr:
    """Disjunction: flattens, folds constants, deduplicates, detects a | ~a."""
    flat: list[BExpr] = []
    seen: set[BExpr] = set()
    for arg in _flatten(_Or, args):
        if arg is TRUE:
            return TRUE
        if arg is FALSE or arg in seen:
            continue
        seen.add(arg)
        flat.append(arg)
    for arg in flat:
        if Not(arg) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return _Or(tuple(flat))


def Implies(antecedent: BExpr, consequent: BExpr) -> BExpr:
    """Material implication, as used for the sub-event relation (e1 => e2)."""
    return Or(Not(antecedent), consequent)


def Iff(left: BExpr, right: BExpr) -> BExpr:
    """Biconditional — the coincidence relation between two events."""
    return And(Implies(left, right), Implies(right, left))


def Xor(left: BExpr, right: BExpr) -> BExpr:
    """Exclusive or."""
    return Or(And(left, Not(right)), And(Not(left), right))


# ---------------------------------------------------------------------------
# exhaustive helpers (testing / tiny supports)
# ---------------------------------------------------------------------------


def all_assignments(names: Iterable[str]) -> Iterator[dict[str, bool]]:
    """Yield every assignment over *names* (2^n of them), in a stable order."""
    ordered = sorted(set(names))
    for values in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, values))


def iter_models(expr: BExpr, over: Iterable[str] | None = None) -> Iterator[dict[str, bool]]:
    """Enumerate satisfying assignments by brute force.

    Intended for tests and very small supports; the engine uses the BDD
    enumerator instead. *over* may extend the support with free variables.
    """
    names = set(expr.support())
    if over is not None:
        names |= set(over)
    for assignment in all_assignments(names):
        if expr.evaluate(assignment):
            yield assignment
