"""Tests for SigPML model construction (builder, parser, validation)."""

import pytest

from repro.errors import ParseError, SdfError
from repro.kernel.validation import check_conformance
from repro.sdf import SdfBuilder, check_application, parse_sigpml


class TestBuilder:
    def test_simple_pipeline(self):
        builder = SdfBuilder("pipe")
        builder.agent("a")
        builder.agent("b", cycles=3)
        place = builder.connect("a", "b", push=2, pop=3, capacity=6, delay=1)
        model, app = builder.build()
        assert [agent.name for agent in app.get("agents")] == ["a", "b"]
        assert place.get("capacity") == 6
        assert place.get("delay") == 1
        assert place.get("outputPort").get("rate") == 2
        assert place.get("inputPort").get("rate") == 3
        assert check_conformance(model) == []
        assert check_application(app) == []

    def test_default_capacity_allows_progress(self):
        builder = SdfBuilder()
        builder.agent("a")
        builder.agent("b")
        place = builder.connect("a", "b", push=2, pop=3)
        assert place.get("capacity") >= 3

    def test_duplicate_agent_rejected(self):
        builder = SdfBuilder()
        builder.agent("a")
        with pytest.raises(SdfError):
            builder.agent("a")

    def test_unknown_agent_rejected(self):
        builder = SdfBuilder()
        builder.agent("a")
        with pytest.raises(SdfError):
            builder.connect("a", "ghost")

    def test_bad_rates_rejected(self):
        builder = SdfBuilder()
        builder.agent("a")
        builder.agent("b")
        with pytest.raises(SdfError):
            builder.connect("a", "b", push=0)
        with pytest.raises(SdfError):
            builder.connect("a", "b", delay=-1)

    def test_parallel_places_get_fresh_names(self):
        builder = SdfBuilder()
        builder.agent("a")
        builder.agent("b")
        first = builder.connect("a", "b")
        second = builder.connect("a", "b")
        assert first.name != second.name

    def test_self_loop_allowed(self):
        builder = SdfBuilder()
        builder.agent("a")
        place = builder.connect("a", "a", push=1, pop=1, delay=1)
        _model, app = builder.build()
        assert check_application(app) == []
        assert place.get("outputPort").get("agent") is place.get(
            "inputPort").get("agent")


class TestValidation:
    def test_delay_exceeding_capacity(self):
        # a place may start full, never over-full: the builder refuses
        # it, so no loader can hand the engine an over-full buffer
        builder = SdfBuilder()
        builder.agent("a")
        builder.agent("b")
        builder.connect("a", "b", capacity=1, delay=1)
        with pytest.raises(SdfError, match="3 initial tokens exceed capacity 2"):
            builder.connect("a", "b", capacity=2, delay=3, name="bad")
        _model, app = builder.build()
        assert check_application(app) == []

    def test_capacity_below_push(self):
        builder = SdfBuilder()
        builder.agent("a")
        builder.agent("b")
        builder.connect("a", "b", push=4, capacity=2)
        _model, app = builder.build()
        issues = check_application(app)
        assert any("never accommodate" in issue for issue in issues)


SIGPML_TEXT = """
// a small multirate chain
application spectrum {
  agent source
  agent fft cycles 4
  agent sink
  place source -> fft push 1 pop 2 capacity 4
  place fft -> sink push 1 pop 1 capacity 2 delay 1
}
"""


class TestParser:
    def test_parse_structure(self):
        model, app = parse_sigpml(SIGPML_TEXT)
        assert app.name == "spectrum"
        agents = {agent.name: agent for agent in app.get("agents")}
        assert set(agents) == {"source", "fft", "sink"}
        assert agents["fft"].get("cycles") == 4
        places = app.get("places")
        assert len(places) == 2
        assert places[0].get("inputPort").get("rate") == 2
        assert places[1].get("delay") == 1
        assert check_application(app) == []

    def test_defaults(self):
        model, app = parse_sigpml(
            "application a {\n agent x\n agent y\n place x -> y\n}\n")
        place = app.get("places")[0]
        assert place.get("outputPort").get("rate") == 1
        assert place.get("delay") == 0

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_sigpml("")
        with pytest.raises(ParseError):
            parse_sigpml("application a {\n bogus line\n}\n")
        with pytest.raises(ParseError):
            parse_sigpml("application a {\n agent x\n")  # missing }
        with pytest.raises(ParseError):
            parse_sigpml(
                "application a {\n agent x\n agent y\n"
                " place x -> y warp 3\n}\n")
        with pytest.raises(ParseError):
            parse_sigpml(
                "application a {\n agent x\n agent y\n"
                " place x -> y push 1 push 2\n}\n")
