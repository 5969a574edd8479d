"""``repro profile``, ``--trace``, and ``repro fuzz --trace-failures``."""

import json

import pytest

import repro.engine.ctl as ctl
from repro import obs
from repro.cli import main
from tests.fuzz.test_oracle import BUGGY_INDEX, BUGGY_SEED

APPLICATION = """
application obscli {
  agent src
  agent dst
  place src -> dst push 1 pop 1 capacity 2
}
"""


def chain_text(length: int, capacity: int = 2) -> str:
    agents = "\n".join(f"  agent a{i}" for i in range(length))
    places = "\n".join(
        f"  place a{i} -> a{i + 1} push 1 pop 1 capacity {capacity}"
        for i in range(length - 1))
    return (f"application chain{length}c{capacity} {{\n"
            f"{agents}\n{places}\n}}\n")


@pytest.fixture()
def app_file(tmp_path):
    path = tmp_path / "obscli.sigpml"
    path.write_text(APPLICATION)
    return str(path)


class TestProfile:
    def test_profile_check_writes_trace_and_report(self, app_file,
                                                   tmp_path, capsys):
        trace_path = tmp_path / "check.trace.json"
        code = main(["profile", "--trace", str(trace_path), "--top", "5",
                     "check", app_file, "AG !deadlock",
                     "--strategy", "symbolic"])
        assert code == 0
        err = capsys.readouterr().err
        assert "profile:" in err and "span(s)" in err
        assert "trace written to" in err
        doc = json.loads(trace_path.read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"repro.profile", "ctl.check", "symbolic.compile",
                "symbolic.fixpoint",
                "symbolic.fixpoint.iteration"} <= names
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0

    def test_profile_exit_code_passes_through(self, app_file, capsys):
        # EF deadlock fails on this model -> check exits 1, so must
        # profile
        code = main(["profile", "check", app_file, "EF deadlock",
                     "--strategy", "symbolic"])
        assert code == 1
        assert "profile:" in capsys.readouterr().err

    def test_profile_keeps_json_stdout_clean(self, app_file, capsys):
        code = main(["profile", "check", app_file, "AG !deadlock",
                     "--strategy", "symbolic", "--json"])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is pure JSON
        assert doc["kind"] == "check"
        assert "profile:" in captured.err

    def test_profile_rejects_empty_and_recursive_commands(self, capsys):
        assert main(["profile"]) == 2
        assert "needs a repro command" in capsys.readouterr().err
        assert main(["profile", "profile", "selftest"]) == 2

    def test_profile_spans_cover_the_check_wall_time(self, tmp_path,
                                                     capsys):
        """The acceptance pin: on a chain12c2 symbolic check the
        instrumented phases account for >= 90% of the profiled wall
        time — the trace explains where the time went."""
        path = tmp_path / "chain12.sigpml"
        path.write_text(chain_text(12))
        previous = obs.disable_tracing()
        tracer = obs.enable_tracing()  # cmd_profile's capture reuses it
        try:
            code = main(["profile", "check", str(path), "AG !deadlock",
                         "--strategy", "symbolic"])
        finally:
            obs.disable_tracing()
            if previous is not None:
                obs.enable_tracing(previous)
        assert code == 0
        root = next(span for span in tracer.spans()
                    if span.name == "repro.profile")
        covered = sum(child.duration for child in root.children)
        assert root.duration > 0
        assert covered / root.duration >= 0.9, (covered, root.duration)


class TestTraceFlag:
    def test_trace_flag_without_profile(self, app_file, tmp_path,
                                        capsys):
        trace_path = tmp_path / "direct.trace.json"
        code = main(["check", app_file, "AG !deadlock",
                     "--strategy", "symbolic", "--trace",
                     str(trace_path)])
        assert code == 0
        names = {event["name"] for event in
                 json.loads(trace_path.read_text())["traceEvents"]}
        assert "ctl.check" in names
        assert "repro.profile" not in names  # no wrapper span here

    def test_trace_flag_on_explore(self, app_file, tmp_path, capsys):
        trace_path = tmp_path / "explore.trace.json"
        assert main(["explore", app_file, "--max-states", "100",
                     "--trace", str(trace_path)]) == 0
        names = {event["name"] for event in
                 json.loads(trace_path.read_text())["traceEvents"]}
        assert "explore.bfs" in names


def _break_truncation_guard(monkeypatch):
    def broken(space):
        checker = ctl._ExplicitChecker(space)
        checker.frontier = frozenset()
        checker.must_dead = checker.may_dead
        return checker

    monkeypatch.setattr(ctl, "_explicit_checker", broken)


class TestTraceFailures:
    def test_trace_failures_requires_out(self, capsys):
        assert main(["fuzz", "--cases", "1", "--trace-failures"]) == 2
        assert "--trace-failures needs --out" in capsys.readouterr().err

    def test_failure_traces_land_next_to_repro_docs(self, tmp_path,
                                                    monkeypatch,
                                                    capsys):
        _break_truncation_guard(monkeypatch)
        out = tmp_path / "artifacts"
        # the pinned case is a SigPML one: a SigPML-only round reaches
        # it without the slow PAM lane
        code = main(["fuzz", "--seed", str(BUGGY_SEED),
                     "--cases", str(BUGGY_INDEX + 1),
                     "--frontends", "sigpml",
                     "--out", str(out), "--trace-failures", "--json"])
        assert code == 1
        docs = sorted(out.glob("fuzz-repro-*.json"))
        traces = sorted(out.glob("fuzz-repro-*.trace.json"))
        assert docs and traces
        # one trace per written repro doc, same numbering
        assert [t.name for t in traces] == \
            [d.name.replace(".json", ".trace.json")
             for d in docs if not d.name.endswith(".trace.json")]
        doc = json.loads(traces[0].read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert "ctl.check" in names  # the replay's engine work
        # tracing stayed a per-failure affair: nothing leaked
        assert not obs.tracing_active()
