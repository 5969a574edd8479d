"""Tests for the ECL mapping language: parsing and weaving (Listing 1)."""

import pytest

from repro.ecl import parse_ecl, weave
from repro.ecl.ast import IntLiteral, Navigation
from repro.errors import MappingError, ParseError
from repro.moccml.library import LibraryRegistry
from repro.ccsl.library import kernel_library
from repro.sdf import SdfBuilder, sdf_library

LISTING1 = """
context Agent
  def : start : Event
  def : stop : Event
  def : isExecuting : Event
context Place
  inv PlaceLimitation:
    Relation PlaceConstraint(self.outputPort.write, self.inputPort.read,
        self.outputPort.rate, self.inputPort.rate, self.delay,
        self.capacity)
"""


class TestParser:
    def test_listing1_structure(self):
        document = parse_ecl(LISTING1)
        assert len(document.contexts) == 2
        agent_context = document.context_for("Agent")
        assert [d.name for d in agent_context.event_defs] == [
            "start", "stop", "isExecuting"]
        place_context = document.context_for("Place")
        invariant = place_context.invariants[0]
        assert invariant.name == "PlaceLimitation"
        assert invariant.call.constraint_name == "PlaceConstraint"
        assert len(invariant.call.arguments) == 6
        assert invariant.call.arguments[0] == Navigation(
            "self.outputPort.write")

    def test_int_literal_argument(self):
        document = parse_ecl(
            "context A\n  inv I:\n    Relation C(self.e, 42)\n")
        invariant = document.contexts[0].invariants[0]
        assert invariant.call.arguments[1] == IntLiteral(42)

    def test_expression_argument(self):
        document = parse_ecl(
            "context A\n  inv I:\n    Relation C(self.e, self.rate * 2)\n")
        argument = document.contexts[0].invariants[0].call.arguments[1]
        assert argument.names() == frozenset({"self.rate"})

    def test_comments_stripped(self):
        document = parse_ecl(
            "-- heading\ncontext A // trailing\n  def: e : Event\n")
        assert document.contexts[0].event_defs[0].name == "e"

    def test_def_without_colon_prefix(self):
        document = parse_ecl("context A\n  def e : Event\n")
        assert document.contexts[0].event_defs[0].name == "e"

    def test_statement_outside_context(self):
        with pytest.raises(ParseError):
            parse_ecl("def: e : Event\n")

    def test_line_after_a_block_comment_keeps_its_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_ecl("/* a comment\n   over three\n   lines */\n"
                      "def: e : Event\n")
        assert excinfo.value.line == 4

    def test_bad_invariant(self):
        with pytest.raises(ParseError):
            parse_ecl("context A\n  inv I: whatever here\n")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_ecl("context A\n  inv I:\n    Relation C(self.e\n")


@pytest.fixture()
def sdf_setup():
    builder = SdfBuilder("two-agents")
    builder.agent("prod")
    builder.agent("cons")
    builder.connect("prod", "cons", push=1, pop=1, capacity=2, delay=0,
                    name="buf")
    model, app = builder.build()
    registry = LibraryRegistry([kernel_library(), sdf_library()])
    return model, app, registry


MINI_MAPPING = """
context Agent
  def: start : Event
  def: stop : Event
  def: isExecuting : Event
context OutputPort
  def: write : Event
context InputPort
  def: read : Event
context Place
  inv PlaceLimitation:
    Relation PlaceConstraint(self.outputPort.write, self.inputPort.read,
        self.outputPort.rate, self.inputPort.rate, self.delay,
        self.capacity)
"""


class TestWeaver:
    def test_events_created_per_instance(self, sdf_setup):
        model, app, registry = sdf_setup
        result = weave(parse_ecl(MINI_MAPPING), model, registry)
        events = result.execution_model.events
        # 2 agents x 3 events + 1 write + 1 read
        assert len(events) == 8
        assert "prod.start" in events
        assert "cons.isExecuting" in events
        assert "buf.out.write" in events
        assert "buf.in.read" in events

    def test_constraint_instantiated_per_place(self, sdf_setup):
        model, app, registry = sdf_setup
        result = weave(parse_ecl(MINI_MAPPING), model, registry)
        constraints = result.execution_model.constraints
        assert len(constraints) == 1
        constraint = constraints[0]
        assert constraint.label == "PlaceLimitation@Place:buf"
        assert constraint.constrained_events == frozenset(
            {"buf.out.write", "buf.in.read"})

    def test_integer_arguments_navigated(self, sdf_setup):
        model, app, registry = sdf_setup
        result = weave(parse_ecl(MINI_MAPPING), model, registry)
        constraint = result.execution_model.constraints[0]
        # capacity was 2, delay 0
        assert constraint._params["itsCapacity"] == 2
        assert constraint._params["itsDelay"] == 0

    def test_event_of_helper(self, sdf_setup):
        model, app, registry = sdf_setup
        result = weave(parse_ecl(MINI_MAPPING), model, registry)
        prod = model.find("Agent", "prod")
        assert result.event_of(prod, "start") == "prod.start"
        with pytest.raises(MappingError):
            result.event_of(prod, "unknown")

    def test_unknown_context_metaclass(self, sdf_setup):
        model, _app, registry = sdf_setup
        document = parse_ecl("context Nonexistent\n  def: e : Event\n")
        with pytest.raises(MappingError):
            weave(document, model, registry)

    def test_event_argument_must_resolve(self, sdf_setup):
        model, _app, registry = sdf_setup
        text = MINI_MAPPING.replace("self.outputPort.write",
                                    "self.outputPort.ghost")
        with pytest.raises(MappingError):
            weave(parse_ecl(text), model, registry)

    def test_int_argument_must_be_int(self, sdf_setup):
        model, _app, registry = sdf_setup
        text = MINI_MAPPING.replace("self.capacity", "self.name")
        with pytest.raises(MappingError):
            weave(parse_ecl(text), model, registry)

    def test_expression_argument_weaves(self, sdf_setup):
        model, _app, registry = sdf_setup
        text = MINI_MAPPING.replace("self.delay,", "self.delay + 0,")
        result = weave(parse_ecl(text), model, registry)
        assert len(result.execution_model.constraints) == 1
