"""Parser for the textual MoCCML syntax.

Line-oriented: every construct fits on one logical line; a trailing
backslash or an unclosed bracket/parenthesis/brace continues onto the
next physical line. ``//`` line comments and ``/* */`` block comments
are stripped first.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.iexpr.parser import parse_actions, parse_guard, parse_int_expr
from repro.moccml.automata import (
    ConstraintAutomataDefinition,
    State,
    Transition,
    Trigger,
    VariableDecl,
)
from repro.moccml.declarations import ConstraintDeclaration, Parameter
from repro.moccml.declarative import ConstraintInstantiation, DeclarativeDefinition
from repro.moccml.library import RelationLibrary

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

_LIBRARY_RE = re.compile(rf"^library\s+({_NAME})\s*\{{$")
_DECLARATION_RE = re.compile(rf"^declaration\s+({_NAME})\s*\((.*)\)$")
_AUTOMATON_RE = re.compile(
    rf"^automaton\s+({_NAME})\s+implements\s+({_NAME})"
    rf"(\s+nostutter)?\s*\{{$")
_DECLARATIVE_RE = re.compile(
    rf"^declarative\s+({_NAME})\s+implements\s+({_NAME})\s*"
    rf"(?:\((.*)\))?\s*\{{$")
_VAR_RE = re.compile(rf"^var\s+({_NAME})\s*:\s*int(?:\s*=\s*(.+))?$")
_INIT_RE = re.compile(r"^init\s+(.+)$")
_STATE_RE = re.compile(
    rf"^((?:initial\s+|final\s+)*)state\s+({_NAME})$")
_TRANSITION_RE = re.compile(
    rf"^transition\s+({_NAME})\s*->\s*({_NAME})\s*(.*)$")
_WHEN_RE = re.compile(r"when\s*\{([^}]*)\}")
_UNLESS_RE = re.compile(r"unless\s*\{([^}]*)\}")
_GUARD_RE = re.compile(r"\[([^\]]*)\]")
_INSTANTIATION_RE = re.compile(rf"^({_NAME}(?:\.{_NAME})?)\s*\((.*)\)$")


def _strip_comments(text: str) -> str:
    # a block comment becomes one space and its newlines move to the end
    # of the line it closes on: a statement around it stays one line, and
    # the lines after it keep their numbers
    text = re.sub(r"/\*.*?\*/",
                  lambda comment: " " + "\0" * comment[0].count("\n"),
                  text, flags=re.DOTALL)
    text = "\n".join(line.replace("\0", "") + "\n" * line.count("\0")
                     for line in text.split("\n"))
    return re.sub(r"//[^\n]*", "", text)


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Merge physical lines into logical lines.

    A line continues when it ends with a backslash or has unbalanced
    ``(``/``[``/``{`` (braces opening a block — a line *ending* with
    '{' — terminate the line)."""
    result: list[tuple[int, str]] = []
    buffer = ""
    buffer_start = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not buffer:
            buffer_start = number
        if line.endswith("\\"):
            buffer += line[:-1] + " "
            continue
        buffer += line
        stripped = buffer.strip()
        if stripped and _unbalanced(stripped):
            buffer += " "
            continue
        if stripped:
            result.append((buffer_start, stripped))
        buffer = ""
    if buffer.strip():
        result.append((buffer_start, buffer.strip()))
    return result


def _unbalanced(line: str) -> bool:
    """True when (,[ or { opened mid-line are not yet closed — except a
    single trailing '{' that opens a block."""
    depth_round = line.count("(") - line.count(")")
    depth_square = line.count("[") - line.count("]")
    body = line[:-1] if line.endswith("{") else line
    depth_brace = body.count("{") - body.count("}")
    return depth_round > 0 or depth_square > 0 or depth_brace > 0


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside parentheses/brackets."""
    parts: list[str] = []
    depth = 0
    current = ""
    for char in text:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current.strip())
    return parts


def _parse_parameters(text: str, line: int) -> list[Parameter]:
    params: list[Parameter] = []
    if not text.strip():
        return params
    for chunk in _split_top_level(text):
        name, sep, kind = (piece.strip() for piece in chunk.partition(":"))
        if not sep:
            raise ParseError(
                f"parameter {chunk!r} must be 'name: event|int'", line=line)
        if kind not in ("event", "int"):
            raise ParseError(
                f"parameter {name!r} has unknown kind {kind!r}", line=line)
        params.append(Parameter(name, kind))
    return params


class _LibraryParser:
    def __init__(self, text: str, filename: str | None = None):
        self.lines = _logical_lines(_strip_comments(text))
        self.index = 0
        self.filename = filename

    def error(self, message: str, line: int) -> ParseError:
        return ParseError(message, line=line, filename=self.filename)

    def peek(self) -> tuple[int, str] | None:
        if self.index < len(self.lines):
            return self.lines[self.index]
        return None

    def next(self) -> tuple[int, str]:
        entry = self.peek()
        if entry is None:
            raise ParseError("unexpected end of input",
                             filename=self.filename)
        self.index += 1
        return entry

    # -- top level -----------------------------------------------------------

    def parse(self) -> RelationLibrary:
        line, text = self.next()
        match = _LIBRARY_RE.match(text)
        if not match:
            raise self.error(f"expected 'library Name {{', found {text!r}",
                             line)
        library = RelationLibrary(match.group(1))
        while True:
            line, text = self.next()
            if text == "}":
                break
            if (match := _DECLARATION_RE.match(text)):
                library.declare(ConstraintDeclaration(
                    match.group(1),
                    _parse_parameters(match.group(2), line)))
            elif (match := _AUTOMATON_RE.match(text)):
                library.define(self._parse_automaton(library, match, line))
            elif (match := _DECLARATIVE_RE.match(text)):
                library.define(self._parse_declarative(library, match, line))
            else:
                raise self.error(f"unexpected line {text!r}", line)
        extra = self.peek()
        if extra is not None:
            raise self.error(f"trailing input {extra[1]!r}", extra[0])
        return library

    # -- automaton ------------------------------------------------------------

    def _parse_automaton(self, library: RelationLibrary, header, line
                         ) -> ConstraintAutomataDefinition:
        name, declaration_name, nostutter = header.groups()
        declaration = library.declaration(declaration_name)

        variables: list[VariableDecl] = []
        initial_actions = []
        states: list[State] = []
        initial_state: str | None = None
        final_states: list[str] = []
        transitions: list[Transition] = []

        while True:
            body_line, text = self.next()
            if text == "}":
                break
            if (match := _VAR_RE.match(text)):
                init_text = match.group(2)
                init = parse_int_expr(init_text) if init_text else None
                variables.append(VariableDecl(
                    match.group(1), init if init is not None else 0))
            elif (match := _INIT_RE.match(text)):
                initial_actions.extend(parse_actions(match.group(1)))
            elif (match := _STATE_RE.match(text)):
                modifiers, state_name = match.groups()
                states.append(State(state_name))
                if "initial" in modifiers:
                    if initial_state is not None:
                        raise self.error(
                            "multiple initial states (metamodel requires "
                            "exactly one)", body_line)
                    initial_state = state_name
                if "final" in modifiers:
                    final_states.append(state_name)
            elif (match := _TRANSITION_RE.match(text)):
                transitions.append(
                    self._parse_transition(match, body_line))
            else:
                raise self.error(
                    f"unexpected line in automaton {name!r}: {text!r}",
                    body_line)

        if initial_state is None:
            raise self.error(
                f"automaton {name!r} has no initial state", line)
        return ConstraintAutomataDefinition(
            name, declaration, states=states, initial_state=initial_state,
            final_states=final_states, variables=variables,
            transitions=transitions, initial_actions=initial_actions,
            allow_stutter=nostutter is None)

    def _parse_transition(self, match, line) -> Transition:
        source, target, rest = match.groups()
        rest = rest.strip()

        actions = []
        slash = _find_action_slash(rest)
        if slash is not None:
            actions = parse_actions(rest[slash + 1:].strip())
            rest = rest[:slash].strip()

        guard = None
        if (guard_match := _GUARD_RE.search(rest)):
            guard_text = guard_match.group(1).strip()
            if guard_text:
                guard = parse_guard(guard_text)
            rest = (rest[:guard_match.start()] + rest[guard_match.end():]).strip()

        true_triggers: list[str] = []
        false_triggers: list[str] = []
        if (when := _WHEN_RE.search(rest)):
            true_triggers = [name.strip()
                             for name in when.group(1).split(",")
                             if name.strip()]
            rest = (rest[:when.start()] + rest[when.end():]).strip()
        if (unless := _UNLESS_RE.search(rest)):
            false_triggers = [name.strip()
                              for name in unless.group(1).split(",")
                              if name.strip()]
            rest = (rest[:unless.start()] + rest[unless.end():]).strip()
        if rest:
            raise self.error(
                f"unexpected transition syntax near {rest!r}", line)
        return Transition(source, target,
                          Trigger(true_triggers, false_triggers),
                          guard, actions)

    # -- declarative ------------------------------------------------------------

    def _parse_declarative(self, library: RelationLibrary, header, line
                           ) -> DeclarativeDefinition:
        name, declaration_name, inline_params = header.groups()
        if inline_params is not None:
            declaration = ConstraintDeclaration(
                declaration_name,
                _parse_parameters(inline_params, line))
            library.declare(declaration)
        else:
            declaration = library.declaration(declaration_name)

        instantiations: list[ConstraintInstantiation] = []
        while True:
            body_line, text = self.next()
            if text == "}":
                break
            match = _INSTANTIATION_RE.match(text)
            if not match:
                raise self.error(
                    f"expected a constraint instantiation, found {text!r}",
                    body_line)
            target, args_text = match.groups()
            arguments = []
            for chunk in _split_top_level(args_text):
                if re.fullmatch(_NAME, chunk):
                    arguments.append(chunk)  # parameter reference
                else:
                    arguments.append(parse_int_expr(chunk))
            instantiations.append(
                ConstraintInstantiation(target, arguments))
        return DeclarativeDefinition(name, declaration, instantiations)


def _find_action_slash(text: str) -> int | None:
    """Index of the '/' starting the action section (outside brackets)."""
    depth = 0
    for index, char in enumerate(text):
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        elif char == "/" and depth == 0:
            return index
    return None


def parse_library(text: str, filename: str | None = None) -> RelationLibrary:
    """Parse a MoCCML library document into a :class:`RelationLibrary`."""
    return _LibraryParser(text, filename).parse()
