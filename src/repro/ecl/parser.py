"""Parser for the Listing-1 ECL syntax.

Accepted grammar (whitespace-flexible, ``--`` or ``//`` comments)::

    document := context*
    context  := 'context' NAME (def | inv)*
    def      := 'def' ':'? NAME ':' 'Event'
    inv      := 'inv' NAME ':' call
    call     := ['Relation'] NAME '(' args ')'
    args     := arg (',' arg)*
    arg      := INT | navigation | int-expression over navigations

A call may span several physical lines until its parentheses balance —
Listing 1 itself wraps its PlaceConstraint arguments.
"""

from __future__ import annotations

import re

from repro.ecl.ast import (
    EclContext,
    EclDocument,
    EclEventDef,
    EclInvariant,
    IntLiteral,
    Navigation,
    RelationCall,
)
from repro.errors import ParseError
from repro.iexpr.parser import parse_int_expr

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_PATH = rf"(?:self\.)?{_NAME}(?:\.{_NAME})*"

_CONTEXT_RE = re.compile(rf"^context\s+({_NAME})$")
_DEF_RE = re.compile(rf"^def\s*:?\s*({_NAME})\s*:\s*Event$")
_INV_START_RE = re.compile(rf"^inv\s+({_NAME})\s*:\s*(.*)$", re.DOTALL)
_CALL_RE = re.compile(
    rf"^(?:Relation\s+)?({_NAME}(?:\.{_NAME})?)\s*\((.*)\)$", re.DOTALL)


def _strip_comments(text: str) -> str:
    # a block comment becomes one space and its newlines move to the end
    # of the line it closes on: a statement around it stays one line, and
    # the lines after it keep their numbers
    text = re.sub(r"/\*.*?\*/",
                  lambda comment: " " + "\0" * comment[0].count("\n"),
                  text, flags=re.DOTALL)
    text = "\n".join(line.replace("\0", "") + "\n" * line.count("\0")
                     for line in text.split("\n"))
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"--[^\n]*", "", text)


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Merge lines until parentheses balance."""
    result: list[tuple[int, str]] = []
    buffer = ""
    start = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not buffer:
            start = number
        buffer = (buffer + " " + line).strip() if buffer else line
        if buffer.count("(") > buffer.count(")"):
            continue
        result.append((start, buffer))
        buffer = ""
    if buffer:
        raise ParseError("unbalanced parentheses at end of input", line=start)
    return result


def _split_arguments(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current.strip())
    return parts


def _parse_argument(text: str, line: int):
    if re.fullmatch(r"-?\d+", text):
        return IntLiteral(int(text))
    if re.fullmatch(_PATH, text):
        return Navigation(text)
    # otherwise: an integer expression over navigations, e.g.
    # "self.inputPort.rate * 2"
    try:
        return parse_int_expr(text)
    except ParseError as exc:
        raise ParseError(f"cannot parse argument {text!r}: {exc}",
                         line=line) from exc


def parse_ecl(text: str, name: str = "mapping") -> EclDocument:
    """Parse an ECL mapping document."""
    lines = _logical_lines(_strip_comments(text))
    document = EclDocument(name=name)
    current: EclContext | None = None

    index = 0
    while index < len(lines):
        line_number, line = lines[index]
        index += 1
        if (match := _CONTEXT_RE.match(line)):
            current = EclContext(match.group(1))
            document.contexts.append(current)
            continue
        if current is None:
            raise ParseError(
                f"statement outside any context: {line!r}", line=line_number)
        if (match := _DEF_RE.match(line)):
            current.event_defs.append(EclEventDef(match.group(1)))
            continue
        if (match := _INV_START_RE.match(line)):
            inv_name, call_text = match.groups()
            call_text = call_text.strip()
            if not call_text and index < len(lines):
                # 'inv Name:' with the relation call on the next line
                line_number, call_text = lines[index]
                index += 1
            call_match = _CALL_RE.match(call_text.strip())
            if not call_match:
                raise ParseError(
                    f"invariant {inv_name!r}: expected "
                    f"'Relation Name(args)', found {call_text!r}",
                    line=line_number)
            constraint_name, args_text = call_match.groups()
            arguments = [
                _parse_argument(chunk, line_number)
                for chunk in _split_arguments(args_text)]
            current.invariants.append(
                EclInvariant(inv_name,
                             RelationCall(constraint_name, arguments)))
            continue
        raise ParseError(f"unexpected line: {line!r}", line=line_number)
    return document
