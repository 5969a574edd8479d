"""Tests for the MoCCML textual syntax (parser, printer, DOT)."""

import pytest

from repro.errors import ParseError
from repro.moccml.semantics import AutomatonRuntime
from repro.moccml.text import parse_library, print_library
from repro.moccml.validate import validate_library

FIG3_TEXT = """
// The paper's Fig. 3 library
library SimpleSDFRelationLibrary {
  declaration PlaceConstraint(write: event, read: event, pushRate: int,
                              popRate: int, itsDelay: int, itsCapacity: int)

  automaton PlaceConstraintDef implements PlaceConstraint {
    var size: int = 0
    init size = itsDelay
    initial final state S1
    transition S1 -> S1 when {write} unless {read} \
        [size <= itsCapacity - pushRate] / size += pushRate
    transition S1 -> S1 when {read} unless {write} \
        [size >= popRate] / size -= popRate
  }
}
"""

DECLARATIVE_TEXT = """
library Handshakes {
  declarative HandshakeDef implements Handshake(req: event, ack: event) {
    Alternates(req, ack)
    SubClock(ack, req)
  }
}
"""


class TestParseFig3:
    def test_structure(self):
        library = parse_library(FIG3_TEXT)
        assert library.name == "SimpleSDFRelationLibrary"
        declaration = library.declaration("PlaceConstraint")
        assert [p.name for p in declaration.parameters] == [
            "write", "read", "pushRate", "popRate", "itsDelay", "itsCapacity"]
        definition = library.definition_for("PlaceConstraint")
        assert definition.name == "PlaceConstraintDef"
        assert definition.initial_state == "S1"
        assert definition.final_states == ("S1",)
        assert len(definition.transitions) == 2
        assert definition.allow_stutter

    def test_validates(self):
        library = parse_library(FIG3_TEXT)
        assert validate_library(library) == []

    def test_parsed_automaton_behaves_like_fig3(self):
        library = parse_library(FIG3_TEXT)
        definition = library.definition_for("PlaceConstraint")
        runtime = AutomatonRuntime(definition, {
            "write": "w", "read": "r", "pushRate": 1, "popRate": 1,
            "itsDelay": 0, "itsCapacity": 2})
        assert runtime.variables == {"size": 0}
        runtime.advance(frozenset({"w"}))
        assert runtime.variables == {"size": 1}

    def test_trigger_parsing(self):
        library = parse_library(FIG3_TEXT)
        definition = library.definition_for("PlaceConstraint")
        first = definition.transitions[0]
        assert first.trigger.true_triggers == ("write",)
        assert first.trigger.false_triggers == ("read",)

    def test_continuation_lines(self):
        # the backslash continuations in FIG3_TEXT parsed into one
        # transition each, with the guard attached
        library = parse_library(FIG3_TEXT)
        definition = library.definition_for("PlaceConstraint")
        assert all(t.guard is not None for t in definition.transitions)


class TestParseDeclarative:
    def test_inline_declaration(self):
        library = parse_library(DECLARATIVE_TEXT)
        declaration = library.declaration("Handshake")
        assert [p.kind for p in declaration.parameters] == ["event", "event"]
        definition = library.definition_for("Handshake")
        assert definition.kind == "declarative"
        assert len(definition.instantiations) == 2
        assert definition.instantiations[0].declaration_name == "Alternates"
        assert definition.instantiations[0].arguments == ("req", "ack")


class TestParseErrors:
    def test_missing_library_header(self):
        with pytest.raises(ParseError):
            parse_library("automaton X implements Y {\n}\n")

    def test_unknown_line(self):
        with pytest.raises(ParseError):
            parse_library("library L {\n  banana\n}\n")

    def test_unknown_declaration_reference(self):
        with pytest.raises(Exception):
            parse_library(
                "library L {\n  automaton A implements Missing {\n"
                "    initial state S\n  }\n}\n")

    def test_missing_initial_state(self):
        text = ("library L {\n"
                "  declaration C(a: event)\n"
                "  automaton D implements C {\n"
                "    state S\n"
                "  }\n"
                "}\n")
        with pytest.raises(ParseError):
            parse_library(text)

    def test_multiple_initial_states(self):
        text = ("library L {\n"
                "  declaration C(a: event)\n"
                "  automaton D implements C {\n"
                "    initial state S\n"
                "    initial state T\n"
                "  }\n"
                "}\n")
        with pytest.raises(ParseError):
            parse_library(text)

    def test_bad_parameter(self):
        with pytest.raises(ParseError):
            parse_library("library L {\n  declaration C(a: float)\n}\n")

    @pytest.mark.parametrize("text, line", [
        ("library L {\n"
         "  /* a comment\n"
         "     over\n"
         "     four lines\n"
         "  */\n"
         "  banana\n"
         "}\n", 6),
        # a comment inside a statement leaves the statement whole
        ("library L {\n"
         "  declaration C(a: event)\n"
         "  automaton D implements C {\n"
         "    initial state S\n"
         "    transition S -> S /* fires\n"
         "       on a */ when {a}\n"
         "    banana\n"
         "  }\n"
         "}\n", 7),
    ], ids=["between-statements", "inside-a-statement"])
    def test_line_after_a_block_comment_keeps_its_number(self, text, line):
        with pytest.raises(ParseError) as excinfo:
            parse_library(text)
        assert excinfo.value.line == line

    def test_nostutter_flag(self):
        text = ("library L {\n"
                "  declaration C(a: event)\n"
                "  automaton D implements C nostutter {\n"
                "    initial state S\n"
                "    transition S -> S when {a}\n"
                "  }\n"
                "}\n")
        library = parse_library(text)
        assert not library.definition_for("C").allow_stutter


class TestRoundTrip:
    def test_fig3_roundtrip(self):
        library = parse_library(FIG3_TEXT)
        text = print_library(library)
        reparsed = parse_library(text)
        assert reparsed.name == library.name
        original = library.definition_for("PlaceConstraint")
        copy = reparsed.definition_for("PlaceConstraint")
        assert copy.state_names() == original.state_names()
        assert len(copy.transitions) == len(original.transitions)
        assert copy.final_states == original.final_states
        # semantics preserved: same behaviour on a short run
        for definition in (original, copy):
            runtime = AutomatonRuntime(definition, {
                "write": "w", "read": "r", "pushRate": 2, "popRate": 1,
                "itsDelay": 1, "itsCapacity": 4})
            runtime.advance(frozenset({"w"}))
            runtime.advance(frozenset({"r"}))
            assert runtime.variables == {"size": 2}

    def test_declarative_roundtrip(self):
        library = parse_library(DECLARATIVE_TEXT)
        reparsed = parse_library(print_library(library))
        definition = reparsed.definition_for("Handshake")
        assert [i.declaration_name for i in definition.instantiations] == [
            "Alternates", "SubClock"]


class TestDot:
    def test_automaton_dot(self):
        from repro.moccml.draw import automaton_to_dot
        library = parse_library(FIG3_TEXT)
        dot = automaton_to_dot(library.definition_for("PlaceConstraint"))
        assert "digraph" in dot
        assert '"S1"' in dot
        assert "doublecircle" in dot  # final state
        assert "size += pushRate" in dot

    def test_statespace_dot(self):
        from repro.ccsl import AlternatesRuntime
        from repro.engine import ExecutionModel, explore
        from repro.moccml.draw import statespace_to_dot
        space = explore(ExecutionModel(["a", "b"],
                                       [AlternatesRuntime("a", "b")]))
        dot = statespace_to_dot(space)
        assert "digraph" in dot
        assert "0 -> 1" in dot
