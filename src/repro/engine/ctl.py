"""Unified temporal-property checking: one CTL AST, two backends.

The paper's pitch — an explicit MoCC "enables concurrency-aware
analysis techniques" — needs more than ad-hoc predicate scans: this
module provides a small branching-time logic over scheduling state
spaces and evaluates it against either engine backend:

* the **explicit** backend runs a *three-valued* evaluation over an
  explored :class:`~repro.engine.statespace.StateSpace`. On a complete
  space it is definitive; on a truncated space it returns
  ``HOLDS``/``FAILS`` only when the explored region alone proves the
  verdict (frontier states are treated as "anything may happen beyond
  here") and :attr:`Verdict.UNKNOWN` otherwise — never an unsound
  definitive answer;
* the **symbolic** backend evaluates the same formulas by backward
  fixpoints (:meth:`~repro.engine.symbolic.TransitionSystem.preimage`)
  directly on the BDD transition relation, restricted to the exact
  reachable set — definitive verdicts on spaces whose explicit graphs
  are far too large to build (see ``bench_e13``).

Both backends extract a replayable witness/counterexample
:class:`~repro.engine.trace.Trace` for the top-level operator, walk
states in the same deterministic order, and therefore return identical
verdicts *and* identical witnesses — asserted corpus-wide by
:mod:`repro.engine.equivalence`.

Syntax
======

Properties are built from :func:`parse_property` text (or the AST
constructors directly)::

    AG !deadlock                      # safety: no reachable deadlock
    AF occurs(sink.start)             # the sink inevitably fires
    EF (occurs(a) & occurs(b))       # a and b can be enabled together
    A[!occurs(err) U occurs(done)]   # no error before completion
    occurs(req) leads_to occurs(ack) # every request state is answered
    AG var(PlaceLimitation@Place:a_b.size) <= 2   # buffer bound
    EF state(GreenExclusionDef@ns_ew, AllRed)     # local control state

Atoms are *state* formulas: ``occurs(e)`` holds in a state where some
acceptable step contains ``e`` (the event is enabled), ``deadlock``
where no step is acceptable, ``var(label.name) OP k`` compares an
automaton variable of the constraint ``label``, and
``state(label, value)`` matches a constraint's local control state.
Operator precedence, loosest first: ``leads_to``, ``->``, ``|``, ``&``,
then the unary operators ``!``/``AG``/``AF``/``AX``/``EG``/``EF``/
``EX`` and the bracketed ``A[p U q]``/``E[p U q]``. Path quantifiers
range over *maximal* runs: a run ending in a deadlock counts, so e.g.
``AF p`` fails when a deadlock is reachable without passing ``p``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro import obs
from repro.engine.statespace import StateSpace
from repro.engine.trace import Trace
from repro.errors import EngineError, ParseError, SymbolicEncodingError

__all__ = [
    "Prop", "TrueProp", "FalseProp", "Occurs", "Deadlock", "InState",
    "VarCmp", "Not", "And", "Or", "Implies",
    "EX", "EF", "EG", "AX", "AF", "AG", "EU", "AU", "LeadsTo",
    "parse_property", "CheckResult", "Verdict", "check", "check_space",
    "replay_steps", "PROPERTY_STRATEGIES",
]

#: strategies accepted by :func:`check`
PROPERTY_STRATEGIES = ("explicit", "symbolic", "auto")


class Verdict(enum.Enum):
    """Three-valued outcome of a property check.

    ``HOLDS`` and ``FAILS`` are definitive; ``UNKNOWN`` means the
    explored region was truncated before the check could conclude.
    ``HOLDS`` is truthy and ``FAILS`` falsy, so definitive verdicts
    drop into boolean contexts unchanged; coercing ``UNKNOWN`` to a
    boolean raises ``ValueError`` — the exact unsound coercion this
    type exists to prevent. Use :attr:`definitive` (or compare against
    ``Verdict.UNKNOWN``) to branch without risking the raise.
    """

    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"

    @property
    def definitive(self) -> bool:
        return self is not Verdict.UNKNOWN

    def __str__(self) -> str:
        return self.value

    def __bool__(self) -> bool:
        if self is Verdict.UNKNOWN:
            raise ValueError(
                "verdict is UNKNOWN (the state space was truncated before "
                "the check could conclude); re-check with a larger budget "
                "or the symbolic strategy (repro.engine.ctl.check) instead "
                "of coercing to a boolean")
        return self is Verdict.HOLDS


# ---------------------------------------------------------------------------
# the property AST
# ---------------------------------------------------------------------------


class Prop:
    """Base class of every property formula node."""

    def to_text(self) -> str:
        raise NotImplementedError

    def _nested(self) -> str:
        """Rendering used when this node sits under an operator."""
        return f"({self.to_text()})"

    def __str__(self) -> str:
        return self.to_text()


class _AtomMixin:
    def _nested(self) -> str:
        return self.to_text()  # atoms never need parentheses


@dataclass(frozen=True)
class TrueProp(_AtomMixin, Prop):
    def to_text(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseProp(_AtomMixin, Prop):
    def to_text(self) -> str:
        return "false"


@dataclass(frozen=True)
class Occurs(_AtomMixin, Prop):
    """Some acceptable step in this state contains *event*."""

    event: str

    def to_text(self) -> str:
        return f"occurs({self.event})"


@dataclass(frozen=True)
class Deadlock(_AtomMixin, Prop):
    """No step is acceptable in this state."""

    def to_text(self) -> str:
        return "deadlock"


@dataclass(frozen=True)
class InState(_AtomMixin, Prop):
    """The constraint labelled *constraint* is in local state *value*
    (an automaton's control-state name, or a counter's value)."""

    constraint: str
    value: str

    def to_text(self) -> str:
        return f"state({self.constraint}, {self.value})"


@dataclass(frozen=True)
class VarCmp(_AtomMixin, Prop):
    """Compare an automaton variable: ``var(label.name) op bound``."""

    variable: str
    op: str  # one of <=, <, >=, >, ==, !=
    bound: int

    _OPS = {
        "<=": lambda a, b: a <= b, "<": lambda a, b: a < b,
        ">=": lambda a, b: a >= b, ">": lambda a, b: a > b,
        "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    }

    def __post_init__(self):
        if self.op not in self._OPS:
            raise ParseError(f"unknown comparison operator {self.op!r}")

    def holds_for(self, value: int) -> bool:
        return self._OPS[self.op](value, self.bound)

    def to_text(self) -> str:
        return f"var({self.variable}) {self.op} {self.bound}"


@dataclass(frozen=True)
class Not(Prop):
    operand: Prop

    def to_text(self) -> str:
        return f"!{self.operand._nested()}"

    def _nested(self) -> str:
        return self.to_text()


class _Binary(Prop):
    _symbol = "?"

    def to_text(self) -> str:
        return (f"{self.left._nested()} {self._symbol} "
                f"{self.right._nested()}")


@dataclass(frozen=True)
class And(_Binary):
    left: Prop
    right: Prop
    _symbol = "&"


@dataclass(frozen=True)
class Or(_Binary):
    left: Prop
    right: Prop
    _symbol = "|"


@dataclass(frozen=True)
class Implies(_Binary):
    left: Prop
    right: Prop
    _symbol = "->"


class _Unary(Prop):
    _symbol = "?"

    def to_text(self) -> str:
        return f"{self._symbol} {self.operand._nested()}"

    def _nested(self) -> str:
        return f"({self.to_text()})"


@dataclass(frozen=True)
class EX(_Unary):
    operand: Prop
    _symbol = "EX"


@dataclass(frozen=True)
class EF(_Unary):
    operand: Prop
    _symbol = "EF"


@dataclass(frozen=True)
class EG(_Unary):
    operand: Prop
    _symbol = "EG"


@dataclass(frozen=True)
class AX(_Unary):
    operand: Prop
    _symbol = "AX"


@dataclass(frozen=True)
class AF(_Unary):
    operand: Prop
    _symbol = "AF"


@dataclass(frozen=True)
class AG(_Unary):
    operand: Prop
    _symbol = "AG"


class _Until(Prop):
    _quantifier = "?"

    def to_text(self) -> str:
        return (f"{self._quantifier}[{self.left.to_text()} U "
                f"{self.right.to_text()}]")

    def _nested(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class EU(_Until):
    left: Prop
    right: Prop
    _quantifier = "E"


@dataclass(frozen=True)
class AU(_Until):
    left: Prop
    right: Prop
    _quantifier = "A"


@dataclass(frozen=True)
class LeadsTo(Prop):
    """``AG (left -> AF right)`` — the response pattern, first-class."""

    left: Prop
    right: Prop

    def to_text(self) -> str:
        return f"{self.left._nested()} leads_to {self.right._nested()}"


# ---------------------------------------------------------------------------
# the text syntax
# ---------------------------------------------------------------------------

_UNARY_OPS = {"AG": AG, "AF": AF, "AX": AX, "EG": EG, "EF": EF, "EX": EX}
_CMP_OPS = ("<=", ">=", "==", "!=", "<", ">")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)

    def match(self, literal: str) -> bool:
        self._skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            self.fail(f"expected {literal!r}")

    def peek_word(self) -> str | None:
        self._skip_ws()
        mark = self.pos
        word = self.word()
        self.pos = mark
        return word

    def word(self) -> str | None:
        self._skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum()
                    or self.text[self.pos] == "_")):
            self.pos += 1
        return self.text[start:self.pos] if self.pos > start else None

    def raw_until(self, stops: str) -> str:
        """Consume raw argument text up to (not including) a stop
        character at nesting depth zero — atom arguments may contain
        dots, colons, ``@`` and even balanced parentheses/commas
        (CCSL labels look like ``Alternates(a, b)``)."""
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if depth == 0 and char in stops:
                break
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
            self.pos += 1
        if self.pos >= len(self.text):
            self.fail(f"expected one of {stops!r}")
        return self.text[start:self.pos].strip()

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            return int(token)
        except ValueError:
            self.fail("expected an integer")

    def fail(self, message: str):
        raise ParseError(f"property syntax: {message}",
                         column=self.pos + 1)


def parse_property(text: str) -> Prop:
    """Parse the property *text* syntax into a :class:`Prop` AST.

    Raises :class:`~repro.errors.ParseError` with a column on bad
    input. ``parse_property(p.to_text())`` round-trips for every AST.
    """
    scanner = _Scanner(text)
    prop = _parse_leads(scanner)
    if not scanner.at_end():
        scanner.fail(f"unexpected trailing input "
                     f"{scanner.text[scanner.pos:]!r}")
    return prop


def _parse_leads(s: _Scanner) -> Prop:
    left = _parse_implies(s)
    mark = s.pos
    if s.word() == "leads_to":
        return LeadsTo(left, _parse_implies(s))
    s.pos = mark
    return left


def _parse_implies(s: _Scanner) -> Prop:
    left = _parse_or(s)
    if s.match("->"):
        return Implies(left, _parse_implies(s))  # right-associative
    return left


def _parse_or(s: _Scanner) -> Prop:
    left = _parse_and(s)
    while s.match("|"):
        left = Or(left, _parse_and(s))
    return left


def _parse_and(s: _Scanner) -> Prop:
    left = _parse_unary(s)
    while s.match("&"):
        left = And(left, _parse_unary(s))
    return left


def _parse_unary(s: _Scanner) -> Prop:
    if s.match("!"):
        return Not(_parse_unary(s))
    if s.match("("):
        inner = _parse_leads(s)
        s.expect(")")
        return inner
    word = s.peek_word()
    if word in _UNARY_OPS:
        s.word()
        return _UNARY_OPS[word](_parse_unary(s))
    if word in ("A", "E"):
        s.word()
        s.expect("[")
        left = _parse_leads(s)
        if s.word() != "U":
            s.fail("expected 'U' in until formula")
        right = _parse_leads(s)
        s.expect("]")
        return (AU if word == "A" else EU)(left, right)
    return _parse_atom(s)


def _parse_atom(s: _Scanner) -> Prop:
    word = s.word()
    if word is None:
        s.fail("expected a property")
    if word == "true":
        return TrueProp()
    if word == "false":
        return FalseProp()
    if word == "deadlock":
        return Deadlock()
    if word == "occurs":
        s.expect("(")
        event = s.raw_until(")")
        s.expect(")")
        if not event:
            s.fail("occurs() needs an event name")
        return Occurs(event)
    if word == "state":
        s.expect("(")
        label = s.raw_until(",")
        s.expect(",")
        value = s.raw_until(")")
        s.expect(")")
        if not label or not value:
            s.fail("state() needs a constraint label and a value")
        return InState(label, value)
    if word == "var":
        s.expect("(")
        variable = s.raw_until(")")
        s.expect(")")
        for op in _CMP_OPS:
            if s.match(op):
                return VarCmp(variable, op, s.integer())
        s.fail("expected a comparison after var(...)")
    s.fail(f"unknown atom or operator {word!r}")


# ---------------------------------------------------------------------------
# configuration-key atom helpers (shared by both backends)
# ---------------------------------------------------------------------------


def _key_matches(key, value: str) -> bool:
    """Whether one constraint's local ``state_key()`` matches *value* —
    the automaton control-state name, or the counter value, as text."""
    if isinstance(key, tuple) and len(key) >= 2:
        return str(key[1]) == value
    return str(key) == value


def _key_variable(key, name: str):
    """The automaton variable *name* in a local key, or None."""
    if (isinstance(key, tuple) and len(key) == 3
            and isinstance(key[2], tuple)):
        for var_name, var_value in key[2]:
            if var_name == name:
                return var_value
    return None


def _key_label(key):
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return key[0]
    return None


def _split_variable(variable: str) -> tuple[str, str]:
    label, sep, name = variable.rpartition(".")
    if not sep:
        raise EngineError(
            f"variable atom {variable!r} must be "
            f"'<constraint label>.<variable name>'")
    return label, name


def _key_value_text(key) -> str:
    """The value a :class:`InState` atom matches against, as text."""
    if isinstance(key, tuple) and len(key) >= 2:
        return str(key[1])
    return str(key)


def _instate_note(prop: InState, known: Iterable[str]) -> str:
    """The possible-typo note attached when a state() value matches no
    known local state — the verdict stays sound (the atom never holds),
    but a misspelt value should not read like a confident refutation."""
    values = sorted(set(known))
    return (f"state({prop.constraint}, {prop.value}): no known local "
            f"state matches {prop.value!r} (known: {values}) — possible "
            f"typo; the atom was treated as never holding")


def _collect_notes(checker, prop: Prop) -> list[str]:
    """Notes recorded by atom evaluation anywhere inside *prop*."""
    notes: list[str] = []
    stack = [prop]
    while stack:
        current = stack.pop()
        note = checker.notes.get(current)
        if note and note not in notes:
            notes.append(note)
        for attribute in ("operand", "left", "right"):
            child = getattr(current, attribute, None)
            if isinstance(child, Prop):
                stack.append(child)
    return sorted(notes)


# ---------------------------------------------------------------------------
# explicit backend: three-valued evaluation over a StateSpace
# ---------------------------------------------------------------------------


class _ExplicitChecker:
    """Three-valued CTL over an (optionally truncated) explicit space.

    Every subformula evaluates to a ``(must, may)`` pair of node sets:
    ``must`` ⊆ states where the formula definitely holds, ``may`` ⊇
    states where it possibly holds. On a complete space the two
    coincide. Frontier states of a truncated space have *unknown*
    outgoing behaviour: they join every existential ``may`` set and no
    temporal ``must`` set, which is exactly what keeps definitive
    verdicts sound — they rely only on explored, definite structure.
    """

    def __init__(self, space: StateSpace):
        self.space = space
        graph = space.graph
        self.all_nodes = frozenset(graph.nodes)
        self.frontier = frozenset(
            node for node, data in graph.nodes(data=True)
            if data.get("frontier", False))
        self.succ: dict[int, list[tuple[frozenset[str], int]]] = {}
        self.pred: dict[int, set[int]] = {node: set() for node in graph.nodes}
        for node in graph.nodes:
            edges = [(data["step"], successor)
                     for _u, successor, data in graph.out_edges(node,
                                                                data=True)]
            edges.sort(key=lambda edge: (len(edge[0]), sorted(edge[0])))
            self.succ[node] = edges
            for _step, successor in edges:
                self.pred[successor].add(node)
        self.must_dead = frozenset(
            node for node in graph.nodes
            if not self.succ[node] and node not in self.frontier)
        self.may_dead = frozenset(
            node for node in graph.nodes if not self.succ[node])
        self._memo: dict[Prop, tuple[frozenset, frozenset]] = {}
        self._keys: dict[int, tuple] | None = None
        #: atom-evaluation notes (possible typos), keyed by atom
        self.notes: dict[Prop, str] = {}

    # -- state keys --------------------------------------------------------

    def _node_keys(self) -> dict[int, tuple]:
        if self._keys is None:
            keys = {}
            for node, data in self.space.graph.nodes(data=True):
                key = data.get("key")
                if key is None:
                    raise EngineError(
                        "this state space carries no configuration keys "
                        "(was it reloaded from JSON?); state()/var() atoms "
                        "need a freshly explored space")
                keys[node] = key
            self._keys = keys
        return self._keys

    def _key_set(self, match) -> frozenset:
        keys = self._node_keys()
        found_label = False
        selected = set()
        for node, configuration in keys.items():
            for part in configuration:
                outcome = match(part)
                if outcome is None:
                    continue
                found_label = True
                if outcome:
                    selected.add(node)
                break
        if not found_label:
            labels = sorted({
                label for configuration in keys.values()
                for label in (_key_label(part) for part in configuration)
                if label})
            raise EngineError(
                f"no constraint matches the atom; known labels: "
                f"{labels or '(none)'}")
        return frozenset(selected)

    # -- evaluation --------------------------------------------------------

    def eval(self, prop: Prop) -> tuple[frozenset, frozenset]:
        cached = self._memo.get(prop)
        if cached is None:
            cached = self._eval(prop)
            assert cached[0] <= cached[1]
            self._memo[prop] = cached
        return cached

    def _ex(self, target_must: frozenset,
            target_may: frozenset) -> tuple[frozenset, frozenset]:
        must = frozenset(
            node for node in self.all_nodes
            if any(successor in target_must
                   for _step, successor in self.succ[node]))
        may = frozenset(
            node for node in self.all_nodes
            if node in self.frontier
            or any(successor in target_may
                   for _step, successor in self.succ[node]))
        return must, may

    def _eu(self, via: frozenset, target: frozenset,
            optimistic: bool) -> frozenset:
        """lfp Z = target ∨ (via ∧ EX Z); *optimistic* counts frontier
        states as possibly-reaching (the may side)."""
        result = set(target)
        queue = deque(result)
        if optimistic:
            for node in self.frontier & via:
                if node not in result:
                    result.add(node)
                    queue.append(node)
        while queue:
            node = queue.popleft()
            for predecessor in self.pred[node]:
                if predecessor in via and predecessor not in result:
                    result.add(predecessor)
                    queue.append(predecessor)
        return frozenset(result)

    def _eg(self, hold: frozenset, dead: frozenset,
            optimistic: bool) -> frozenset:
        """gfp Z = hold ∧ (EX Z ∨ dead) over maximal runs; *optimistic*
        lets frontier states continue into the unexplored region.

        Computed by O(V+E) out-degree stripping: repeatedly drop
        unanchored states with no remaining successor in the set.
        """
        anchored = set(dead)
        if optimistic:
            anchored |= self.frontier
        alive = set(hold)
        counts: dict[int, int] = {}
        queue: deque[int] = deque()
        for node in alive:
            distinct = {successor for _step, successor in self.succ[node]
                        if successor in alive}
            counts[node] = len(distinct)
            if not distinct and node not in anchored:
                queue.append(node)
        while queue:
            node = queue.popleft()
            alive.discard(node)
            for predecessor in self.pred[node]:
                if predecessor in alive:
                    counts[predecessor] -= 1
                    if counts[predecessor] == 0 \
                            and predecessor not in anchored:
                        queue.append(predecessor)
        return frozenset(alive)

    def _eval(self, prop: Prop) -> tuple[frozenset, frozenset]:
        empty = frozenset()
        if isinstance(prop, TrueProp):
            return self.all_nodes, self.all_nodes
        if isinstance(prop, FalseProp):
            return empty, empty
        if isinstance(prop, Occurs):
            if prop.event not in self.space.events:
                raise EngineError(
                    f"unknown event {prop.event!r} in "
                    f"{self.space.name!r}; known: "
                    f"{sorted(self.space.events)}")
            must = frozenset(
                node for node in self.all_nodes
                if any(prop.event in step
                       for step, _succ in self.succ[node]))
            return must, must | self.frontier
        if isinstance(prop, Deadlock):
            return self.must_dead, self.may_dead
        if isinstance(prop, InState):
            def match_state(part, _prop=prop):
                if _key_label(part) != _prop.constraint:
                    return None
                return _key_matches(part, _prop.value)
            nodes = self._key_set(match_state)
            if not nodes:
                known = (
                    _key_value_text(part)
                    for configuration in self._node_keys().values()
                    for part in configuration
                    if _key_label(part) == prop.constraint)
                self.notes[prop] = _instate_note(prop, known)
            return nodes, nodes
        if isinstance(prop, VarCmp):
            label, name = _split_variable(prop.variable)

            def match_var(part, _prop=prop, _label=label, _name=name):
                if _key_label(part) != _label:
                    return None
                value = _key_variable(part, _name)
                if value is None:
                    return None
                return _prop.holds_for(value)
            nodes = self._key_set(match_var)
            return nodes, nodes
        if isinstance(prop, Not):
            must, may = self.eval(prop.operand)
            return self.all_nodes - may, self.all_nodes - must
        if isinstance(prop, And):
            lm, ly = self.eval(prop.left)
            rm, ry = self.eval(prop.right)
            return lm & rm, ly & ry
        if isinstance(prop, Or):
            lm, ly = self.eval(prop.left)
            rm, ry = self.eval(prop.right)
            return lm | rm, ly | ry
        if isinstance(prop, Implies):
            return self.eval(Or(Not(prop.left), prop.right))
        if isinstance(prop, EX):
            must, may = self.eval(prop.operand)
            return self._ex(must, may)
        if isinstance(prop, EF):
            return self.eval(EU(TrueProp(), prop.operand))
        if isinstance(prop, EU):
            lm, ly = self.eval(prop.left)
            rm, ry = self.eval(prop.right)
            return (self._eu(lm, rm, optimistic=False),
                    self._eu(ly, ry, optimistic=True))
        if isinstance(prop, EG):
            must, may = self.eval(prop.operand)
            return (self._eg(must, self.must_dead, optimistic=False),
                    self._eg(may, self.may_dead, optimistic=True))
        if isinstance(prop, AX):
            return self.eval(Not(EX(Not(prop.operand))))
        if isinstance(prop, AF):
            return self.eval(Not(EG(Not(prop.operand))))
        if isinstance(prop, AG):
            return self.eval(Not(EF(Not(prop.operand))))
        if isinstance(prop, AU):
            no_q = Not(prop.right)
            stuck = And(Not(prop.left), no_q)
            return self.eval(Not(Or(EU(no_q, stuck), EG(no_q))))
        if isinstance(prop, LeadsTo):
            return self.eval(AG(Implies(prop.left, AF(prop.right))))
        raise EngineError(f"unknown property node {prop!r}")

    # -- the witness-walker protocol ---------------------------------------

    @property
    def initial_state(self):
        return self.space.initial

    def successors(self, state):
        return self.succ[state]

    def sat(self, prop: Prop):
        """Opaque sat handle for witness walks — the definite side."""
        return self.eval(prop)[0]

    def member(self, state, sat_handle) -> bool:
        return state in sat_handle

    def is_dead(self, state) -> bool:
        return state in self.must_dead

    def distance_gauge(self, via, target):
        """``state -> length of the shortest via-path to target`` (or
        None) — one backward BFS from the target set."""
        distance = {node: 0 for node in target}
        queue = deque(target)
        while queue:
            node = queue.popleft()
            for predecessor in self.pred[node]:
                if predecessor in via and predecessor not in distance:
                    distance[predecessor] = distance[node] + 1
                    queue.append(predecessor)
        return distance.get

    def verdict(self, prop: Prop) -> Verdict:
        must, may = self.eval(prop)
        if self.space.initial in must:
            return Verdict.HOLDS
        if self.space.initial not in may:
            return Verdict.FAILS
        return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# symbolic backend: backward fixpoints on the transition relation
# ---------------------------------------------------------------------------


class _SymbolicChecker:
    """Definitive CTL evaluation on the BDD transition relation.

    Sat sets are BDDs over the current state bits, kept inside the
    exact reachable set ``R``; path operators use the relation
    restricted to ``R`` on both sides (``T ∧ R ∧ R'``), which never
    changes verdicts at the initial state — successors of reachable
    states are reachable — but keeps every fixpoint iterate small and
    excludes unreachable encoding junk.
    """

    def __init__(self, system, include_empty: bool = False):
        self.system = system
        self.include_empty = include_empty
        bdd = system.bdd
        self.reached = system.reachable_set(include_empty=include_empty)
        reach = self.reached.node
        self.universe = reach
        if system.relation_mode == "monolithic":
            reach_primed = bdd.substitute(reach, system.cur_to_primed)
            self.relation = bdd.apply_and(
                system.step_relation(include_empty),
                bdd.apply_and(reach, reach_primed))
            can_step = system.can_step_node(relation=self.relation)
        else:
            # partitioned mode never materializes the restricted
            # relation: _pre runs the clustered product and restricts
            # the *result* to R, which denotes the same set (successors
            # of reachable states are reachable, and every sat set fed
            # to _pre is ⊆ R) — hence the identical canonical node, so
            # verdicts and witnesses match the monolithic path bit for
            # bit.
            self.relation = None
            can_step = system.can_step_node(include_empty)
        self.dead = bdd.apply_and(reach, bdd.apply_not(can_step))
        self._memo: dict[Prop, int] = {}
        #: distance-gauge onion rings still referenced by live gauge
        #: closures (witness extraction) — kept as reorder roots for the
        #: checker's lifetime so a mid-extraction reorder cannot
        #: invalidate them
        self._ring_pins: list[int] = []
        #: atom-evaluation notes (possible typos), keyed by atom
        self.notes: dict[Prop, str] = {}

    def reorder_roots(self) -> list[int]:
        """Node ids this checker holds — reported to the transition
        system's reorder-roots sweep through the ``analysis_cache``
        protocol (see :meth:`TransitionSystem._reorder_roots`)."""
        roots = [self.universe, self.dead]
        if self.relation is not None:
            roots.append(self.relation)
        roots.extend(self._memo.values())
        roots.extend(self._ring_pins)
        return roots

    def _pre(self, node: int) -> int:
        if self.relation is None:
            return self._restrict(
                self.system.preimage(node, self.include_empty))
        return self.system.preimage(node, relation=self.relation)

    def _restrict(self, node: int) -> int:
        return self.system.bdd.apply_and(self.universe, node)

    def _space_for(self, label: str):
        for space in self.system.spaces:
            if space.label == label:
                return space
        raise EngineError(
            f"no constraint labelled {label!r} in "
            f"{self.system.name!r}; known: "
            f"{sorted(space.label for space in self.system.spaces)}")

    def eval(self, prop: Prop) -> int:
        cached = self._memo.get(prop)
        if cached is None:
            cached = self._eval(prop)
            self._memo[prop] = cached
        return cached

    def _eval(self, prop: Prop) -> int:
        bdd = self.system.bdd
        if isinstance(prop, TrueProp):
            return self.universe
        if isinstance(prop, FalseProp):
            return bdd.zero
        if isinstance(prop, Occurs):
            # occurs_node also validates the event name — a typoed
            # event must error, never yield a definitive verdict
            if self.relation is None:
                return self._restrict(
                    self.system.occurs_node(prop.event,
                                            self.include_empty))
            return self.system.occurs_node(prop.event,
                                           relation=self.relation)
        if isinstance(prop, Deadlock):
            return self.dead
        if isinstance(prop, InState):
            space = self._space_for(prop.constraint)
            ids = [local_id for local_id, key in enumerate(space.keys)
                   if _key_matches(key, prop.value)]
            if not ids:
                self.notes[prop] = _instate_note(
                    prop, (_key_value_text(key) for key in space.keys))
            return self._restrict(
                self.system.local_states_node(space.index, ids))
        if isinstance(prop, VarCmp):
            label, name = _split_variable(prop.variable)
            space = self._space_for(label)
            ids = []
            known = False
            for local_id, key in enumerate(space.keys):
                value = _key_variable(key, name)
                if value is None:
                    continue
                known = True
                if prop.holds_for(value):
                    ids.append(local_id)
            if not known:
                raise EngineError(
                    f"constraint {label!r} has no variable {name!r}")
            return self._restrict(
                self.system.local_states_node(space.index, ids))
        if isinstance(prop, Not):
            return self._restrict(bdd.apply_not(self.eval(prop.operand)))
        if isinstance(prop, And):
            return bdd.apply_and(self.eval(prop.left), self.eval(prop.right))
        if isinstance(prop, Or):
            return bdd.apply_or(self.eval(prop.left), self.eval(prop.right))
        if isinstance(prop, Implies):
            return self.eval(Or(Not(prop.left), prop.right))
        if isinstance(prop, EX):
            return self._pre(self.eval(prop.operand))
        if isinstance(prop, EF):
            return self.eval(EU(TrueProp(), prop.operand))
        if isinstance(prop, EU):
            via = self.eval(prop.left)
            result = self.eval(prop.right)
            while True:
                grown = bdd.apply_or(
                    result, bdd.apply_and(via, self._pre(result)))
                if grown == result:
                    return result
                result = grown
                # safe point: via/right are memoized (roots already),
                # the iterate is the only in-flight node to pin
                self.system._maybe_reorder(result)
        if isinstance(prop, EG):
            hold = self.eval(prop.operand)
            result = hold
            while True:
                shrunk = bdd.apply_and(
                    hold, bdd.apply_or(self._pre(result), self.dead))
                if shrunk == result:
                    return result
                result = shrunk
                self.system._maybe_reorder(result)
        if isinstance(prop, AX):
            return self.eval(Not(EX(Not(prop.operand))))
        if isinstance(prop, AF):
            return self.eval(Not(EG(Not(prop.operand))))
        if isinstance(prop, AG):
            return self.eval(Not(EF(Not(prop.operand))))
        if isinstance(prop, AU):
            no_q = Not(prop.right)
            stuck = And(Not(prop.left), no_q)
            return self.eval(Not(Or(EU(no_q, stuck), EG(no_q))))
        if isinstance(prop, LeadsTo):
            return self.eval(AG(Implies(prop.left, AF(prop.right))))
        raise EngineError(f"unknown property node {prop!r}")

    # -- the witness-walker protocol ---------------------------------------

    @property
    def initial_state(self):
        return self.system.initial_ids

    def successors(self, state):
        edges = []
        for step in self.system.steps_at(state,
                                         include_empty=self.include_empty):
            successor = self.system.successor(state, step)
            if not step and successor == state:
                continue  # stuttering self-loop, excluded like the explorer
            edges.append((step, successor))
        return edges

    def sat(self, prop: Prop):
        return self.eval(prop)

    def member(self, state, sat_handle) -> bool:
        return self.system.bdd.evaluate(
            sat_handle, self.system.encode_assignment(state))

    def is_dead(self, state) -> bool:
        return self.member(state, self.dead)

    def distance_gauge(self, via, target):
        """``state -> shortest via-distance to target`` via the EU
        fixpoint's onion rings: ring *i* is the set of states at
        distance ≤ *i*, each ring one preimage. Probing a state is a
        linear-in-depth sequence of O(bits) BDD evaluations — no
        concrete state is ever enumerated."""
        bdd = self.system.bdd
        rings = [target]
        self._ring_pins.append(target)
        while True:
            grown = bdd.apply_or(
                rings[-1], bdd.apply_and(via, self._pre(rings[-1])))
            if grown == rings[-1]:
                break
            rings.append(grown)
            self._ring_pins.append(grown)
            self.system._maybe_reorder(via)

        def gauge(state):
            assignment = self.system.encode_assignment(state)
            for index, ring in enumerate(rings):
                if bdd.evaluate(ring, assignment):
                    return index
            return None

        return gauge

    def verdict(self, prop: Prop) -> Verdict:
        if self.member(self.initial_state, self.eval(prop)):
            return Verdict.HOLDS
        return Verdict.FAILS


# ---------------------------------------------------------------------------
# witness extraction (shared by both backends)
# ---------------------------------------------------------------------------


def _reach_walk(backend, via, target) -> tuple[list, object] | None:
    """Shortest step path from the initial state through *via*-states
    to a *target*-state, or None when unreachable.

    Guided by a backend-provided distance-to-target gauge (an explicit
    backward BFS, or the EU fixpoint's onion rings on the symbolic
    side): every step costs one successor enumeration of a single
    state, never a breadth search of the concrete space — which is what
    keeps counterexample extraction viable on spaces only the symbolic
    backend can handle. Both backends use the identical greedy rule
    over the identical step order, so the extracted paths agree.
    """
    state = backend.initial_state
    gauge = backend.distance_gauge(via, target)
    distance = gauge(state)
    if distance is None:
        return None
    steps: list = []
    while distance > 0:
        for step, successor in backend.successors(state):
            closer = gauge(successor)
            if closer is not None and closer < distance:
                steps.append(step)
                state = successor
                distance = closer
                break
        else:  # pragma: no cover — a closer successor must exist
            return None
    return steps, state


def _lasso_from(backend, start, stay) -> list:
    """A maximal-run witness staying inside *stay*: follow the first
    successor that remains in *stay* until a deadlock or a revisit
    closes the lasso."""
    steps: list = []
    seen = {start}
    state = start
    while not backend.is_dead(state):
        for step, successor in backend.successors(state):
            if backend.member(successor, stay):
                steps.append(step)
                state = successor
                break
        else:  # pragma: no cover — stay is a fixpoint, a move must exist
            break
        if state in seen:
            break
        seen.add(state)
    return steps


def _extract_witness(backend, prop: Prop,
                     verdict: Verdict) -> tuple[str, list] | None:
    """A ``(kind, steps)`` witness/counterexample for the *top-level*
    operator, when the verdict admits a single-path explanation."""
    with obs.span("check.witness") as trace:
        found = _extract_witness_inner(backend, prop, verdict)
        if found is not None:
            trace.set(kind=found[0], steps=len(found[1]))
    return found


def _extract_witness_inner(backend, prop: Prop,
                           verdict: Verdict) -> tuple[str, list] | None:
    if verdict is Verdict.HOLDS:
        found = _existential_witness(backend, prop)
        return ("witness", found) if found is not None else None
    if verdict is Verdict.FAILS:
        dual = _failure_dual(prop)
        if dual is None:
            return None
        found = _existential_witness(backend, dual)
        return ("counterexample", found) if found is not None else None
    return None


def _failure_dual(prop: Prop) -> Prop | None:
    """The existential formula whose witness refutes *prop*."""
    if isinstance(prop, AG):
        return EF(Not(prop.operand))
    if isinstance(prop, AF):
        return EG(Not(prop.operand))
    if isinstance(prop, AX):
        return EX(Not(prop.operand))
    if isinstance(prop, AU):
        no_q = Not(prop.right)
        return Or(EU(no_q, And(Not(prop.left), no_q)), EG(no_q))
    if isinstance(prop, LeadsTo):
        return EF(And(prop.left, EG(Not(prop.right))))
    if isinstance(prop, Not) and isinstance(prop.operand,
                                            (EX, EF, EG, EU)):
        return prop.operand  # ¬E... fails ⟺ the E-formula holds
    return None


def _existential_witness(backend, prop: Prop) -> list | None:
    start = backend.initial_state
    everywhere = backend.sat(TrueProp())
    if isinstance(prop, EX):
        target = backend.sat(prop.operand)
        for step, successor in backend.successors(start):
            if backend.member(successor, target):
                return [step]
        return None
    if isinstance(prop, EF):
        found = _reach_walk(backend, everywhere,
                            backend.sat(prop.operand))
        if found is None:
            return None
        steps, pivot = found
        return steps + _eg_tail(backend, pivot, prop.operand)
    if isinstance(prop, EU):
        found = _reach_walk(backend, backend.sat(prop.left),
                            backend.sat(prop.right))
        return found[0] if found else None
    if isinstance(prop, EG):
        stay = backend.sat(prop)
        if not backend.member(start, stay):
            return None
        return _lasso_from(backend, start, stay)
    if isinstance(prop, Or):
        left = backend.sat(prop.left)
        if backend.member(start, left):
            return _existential_witness(backend, prop.left)
        return _existential_witness(backend, prop.right)
    return None


def _eg_tail(backend, state, reached_prop: Prop) -> list:
    """Extend a reach-witness when the reached formula is itself a
    trap — ``EF (EG q)`` / the ``EF (p ∧ EG q)`` shape of a failed
    leads_to — so the trace *shows* the run that never recovers."""
    if isinstance(reached_prop, EG):
        return _lasso_from(backend, state, backend.sat(reached_prop))
    if isinstance(reached_prop, And) and isinstance(reached_prop.right, EG):
        return _lasso_from(backend, state, backend.sat(reached_prop.right))
    return []


# ---------------------------------------------------------------------------
# the unified entry points
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """The outcome of one property check: a three-valued verdict plus
    the evidence — which backend answered, over how many states, and a
    replayable witness/counterexample trace when the top-level operator
    admits one."""

    prop: Prop
    verdict: Verdict
    strategy: str
    states: int
    truncated: bool
    events: list[str]
    witness_steps: list | None = None
    witness_kind: str | None = None
    reason: str = ""

    @property
    def definitive(self) -> bool:
        return self.verdict.definitive

    def witness(self) -> Trace | None:
        """The witness/counterexample as a replayable Trace."""
        if self.witness_steps is None:
            return None
        return Trace.from_steps(self.events, self.witness_steps)

    def to_doc(self) -> dict:
        doc: dict = {
            "property": self.prop.to_text(),
            "verdict": self.verdict.value,
            "strategy": self.strategy,
            "states": self.states,
            "truncated": self.truncated,
            "events": list(self.events),
        }
        if self.reason:
            doc["reason"] = self.reason
        if self.witness_steps is not None:
            doc["witness_kind"] = self.witness_kind
            doc["trace"] = [sorted(step) for step in self.witness_steps]
        return doc

    def __repr__(self):
        tail = f", {self.witness_kind}" if self.witness_kind else ""
        return (f"CheckResult({self.prop.to_text()!r}, "
                f"{self.verdict.value.upper()}, {self.strategy}{tail})")


def _explicit_checker(space: StateSpace) -> _ExplicitChecker:
    """One evaluator per space, parked on the space instance — repeated
    checks (the equivalence battery) share adjacency maps and memoized
    sat sets. Callers must not mutate the graph afterwards."""
    checker = getattr(space, "_ctl_checker", None)
    if checker is None:
        checker = _ExplicitChecker(space)
        space._ctl_checker = checker
    return checker


def _symbolic_checker(system, include_empty: bool) -> _SymbolicChecker:
    """One evaluator per compiled system and empty-step mode, parked in
    the system's analysis cache — repeated ``check()`` calls share the
    reachability fixpoint, restricted relation and sat-set memo."""
    key = ("ctl", include_empty)
    checker = system.analysis_cache.get(key)
    if checker is None:
        checker = _SymbolicChecker(system, include_empty=include_empty)
        system.analysis_cache[key] = checker
    return checker


def _attach_notes(result: "CheckResult", checker, prop: Prop) -> None:
    notes = _collect_notes(checker, prop)
    if notes:
        joined = "; ".join(notes)
        result.reason = f"{result.reason}; {joined}" if result.reason \
            else joined


def check_space(space: StateSpace, prop: Prop | str,
                witness: bool = True) -> CheckResult:
    """Check *prop* on an already-explored state space (explicit
    backend). Truncated spaces yield ``UNKNOWN`` whenever the explored
    region cannot prove the verdict. Spaces explored with
    ``maximal_only`` (the ASAP reduction) under-approximate the
    branching — verdicts on them would be unsound, so they are
    rejected outright."""
    if isinstance(prop, str):
        prop = parse_property(prop)
    if space.maximal_only:
        raise EngineError(
            f"state space {space.name!r} was explored with "
            f"maximal_only=True; the ASAP reduction does not preserve "
            f"temporal properties — re-explore with full branching")
    checker = _explicit_checker(space)
    verdict = checker.verdict(prop)
    result = CheckResult(
        prop=prop, verdict=verdict, strategy="explicit",
        states=space.n_states, truncated=space.truncated,
        events=list(space.events))
    if verdict is Verdict.UNKNOWN:
        result.reason = (
            f"state space truncated at {space.n_states} states; the "
            f"explored region neither proves nor refutes the property")
    elif witness:
        found = _extract_witness(checker, prop, verdict)
        if found is not None:
            result.witness_kind, result.witness_steps = found
    _attach_notes(result, checker, prop)
    return result


def check(model, prop: Prop | str, strategy: str = "auto",
          max_states: int = 10_000, max_depth: int | None = None,
          include_empty: bool = False, witness: bool = True,
          relation_mode: str | None = None,
          cluster_cap: int | None = None) -> CheckResult:
    """Check a temporal property of *model* — the front door.

    *strategy* selects the backend: ``"explicit"`` explores up to the
    ``max_states``/``max_depth`` budget and evaluates three-valued (so
    a too-small budget yields ``UNKNOWN``, never an unsound verdict);
    ``"symbolic"`` computes the exact reachable set by fixpoint
    iteration and answers definitively, independent of the budgets;
    ``"auto"`` picks symbolic for large models, uses it to resolve an
    explicit ``UNKNOWN`` on small ones, and falls back to explicit when
    the model cannot be finitely encoded.
    *relation_mode*/*cluster_cap* select the symbolic relation layout
    (``None`` keeps the engine defaults; see
    :data:`repro.engine.symbolic.RELATION_MODES`) — verdicts and
    witnesses are identical under every layout.
    """
    if isinstance(prop, str):
        prop = parse_property(prop)
    with obs.span("ctl.check", property=str(prop),
                  strategy=strategy) as trace:
        result = _check_dispatch(
            model, prop, strategy=strategy, max_states=max_states,
            max_depth=max_depth, include_empty=include_empty,
            witness=witness, relation_mode=relation_mode,
            cluster_cap=cluster_cap)
        trace.set(strategy=result.strategy, verdict=result.verdict.name)
    return result


def _check_dispatch(model, prop: Prop, strategy: str,
                    max_states: int, max_depth: int | None,
                    include_empty: bool, witness: bool,
                    relation_mode: str | None,
                    cluster_cap: int | None) -> CheckResult:
    if strategy not in PROPERTY_STRATEGIES:
        raise EngineError(
            f"unknown check strategy {strategy!r}; expected one of "
            f"{', '.join(PROPERTY_STRATEGIES)}")

    def explicit() -> CheckResult:
        space = model.kernel.explored_space(
            model, max_states=max_states, max_depth=max_depth,
            include_empty=include_empty)
        return check_space(space, prop, witness=witness)

    def symbolic() -> CheckResult:
        checker = _symbolic_checker(
            model.kernel.transition_system(
                model, relation_mode=relation_mode,
                cluster_cap=cluster_cap),
            include_empty)
        verdict = checker.verdict(prop)
        result = CheckResult(
            prop=prop, verdict=verdict, strategy="symbolic",
            states=checker.reached.count(), truncated=False,
            events=list(checker.system.events))
        if witness:
            found = _extract_witness(checker, prop, verdict)
            if found is not None:
                result.witness_kind, result.witness_steps = found
        _attach_notes(result, checker, prop)
        return result

    if strategy == "explicit":
        return explicit()
    if strategy == "symbolic":
        return symbolic()
    # auto: the static encodability predictor routes up front; the
    # SymbolicEncodingError handlers stay as the safety net for
    # predictor misses (counted in the predictor telemetry)
    from repro.engine.encodability import is_encodable, record_safety_net
    from repro.engine.explorer import AUTO_EVENT_THRESHOLD
    if len(model.events) >= AUTO_EVENT_THRESHOLD:
        if not is_encodable(model):
            return explicit()
        try:
            return symbolic()
        except SymbolicEncodingError:
            record_safety_net()
            return explicit()
    result = explicit()
    if result.verdict is Verdict.UNKNOWN:
        if not is_encodable(model):
            result.reason += "; model is not finitely encodable"
            return result
        try:
            return symbolic()
        except SymbolicEncodingError:
            record_safety_net()
            result.reason += "; model is not finitely encodable"
    return result


def replay_steps(model, steps: Iterable[frozenset[str]]) -> bool:
    """Replay a witness on a clone of *model*, validating every step
    against the constraint conjunction — the ground-truth check that a
    reported trace is an actual schedule prefix."""
    probe = model.clone()
    for step in steps:
        if not probe.is_acceptable(frozenset(step)):
            return False
        probe.advance(frozenset(step), check=False)
    return True
