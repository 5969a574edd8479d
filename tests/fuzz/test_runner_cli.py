"""Round driver and the ``repro fuzz`` CLI."""

import json

import pytest

import repro.engine.ctl as ctl
from repro.cli import main
from repro.fuzz import run_round
from repro.fuzz.runner import replay_document
from tests.fuzz.test_oracle import BUGGY_INDEX, BUGGY_SEED

#: every front-end but PAM, whose cases take seconds each to build and
#: check; PAM stays fuzzed by test_run_round_reports_per_frontend_counts
FAST_FRONTENDS = ["sigpml", "deployment", "ccsl", "moccml"]


def test_run_round_needs_a_stopping_rule():
    with pytest.raises(ValueError):
        run_round(1)
    with pytest.raises(ValueError):
        run_round(1, cases=2, frontends=("nope",))


def test_run_round_reports_per_frontend_counts():
    report = run_round(9, cases=5)
    assert report["ok"]
    assert report["cases"] == 5
    assert sum(report["per_frontend"].values()) == report["cases"]
    assert set(report["per_frontend"]) == {
        "sigpml", "deployment", "pam", "ccsl", "moccml",
    }
    assert report["checks"] > 0
    assert report["generation"] >= 1


@pytest.mark.parametrize("cases", [1, 3, 4])
def test_run_round_checks_exactly_the_cases_asked(cases):
    # eight checks per (encodable) case — the static check, the
    # state-space cross-check and three properties on each of the two
    # backends — round-robin over the lanes: no case beyond the count
    # is generated or checked
    report = run_round(5, cases=cases, frontends=FAST_FRONTENDS)
    assert report["ok"]
    assert report["cases"] == cases
    assert report["checks"] == 8 * cases
    assert list(report["per_frontend"].values()) == [
        1 if lane < cases else 0 for lane in range(len(FAST_FRONTENDS))]


def test_run_round_restricts_frontends():
    report = run_round(17, cases=2, frontends=("ccsl",))
    assert set(report["per_frontend"]) == {"ccsl"}
    assert report["per_frontend"]["ccsl"] == report["cases"]


def _break_truncation_guard(monkeypatch):
    def broken(space):
        checker = ctl._ExplicitChecker(space)
        checker.frontier = frozenset()
        checker.must_dead = checker.may_dead
        return checker

    monkeypatch.setattr(ctl, "_explicit_checker", broken)


def test_cli_fuzz_round_and_replay(tmp_path, monkeypatch, capsys):
    # a healthy bounded round passes
    assert main(["fuzz", "--seed", "9", "--cases", "3",
                 "--frontends", *FAST_FRONTENDS, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "fuzz"
    assert report["ok"] is True
    assert report["version"]

    # with the soundness bug injected, the same CLI goes red and emits
    # a self-contained repro document; the pinned case is a SigPML one,
    # so a SigPML-only round reaches it without the other lanes
    _break_truncation_guard(monkeypatch)
    out = tmp_path / "artifacts"
    code = main([
        "fuzz", "--seed", str(BUGGY_SEED),
        "--cases", str(BUGGY_INDEX + 1), "--frontends", "sigpml",
        "--minimize", "--out", str(out), "--json",
    ])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["failures"]
    assert {failure["index"] for failure in report["failures"]} == {
        BUGGY_INDEX
    }
    docs = sorted(out.glob("fuzz-repro-*.json"))
    assert docs
    document = json.loads(docs[0].read_text())
    assert set(document) >= {"models", "runs", "fuzz"}

    # --replay reproduces the failure while the bug is present ...
    assert main(["fuzz", "--replay", str(docs[0]), "--json"]) == 1
    replay = json.loads(capsys.readouterr().out)
    assert replay["ok"] is False

    # ... and comes up clean once it is fixed
    monkeypatch.undo()
    assert main(["fuzz", "--replay", str(docs[0]), "--json"]) == 0


def test_cli_fuzz_requires_a_stopping_rule(capsys):
    assert main(["fuzz"]) == 2
    assert "needs --cases or --budget" in capsys.readouterr().err


def test_cli_fuzz_has_no_workers_flag(capsys):
    # a round runs its cases in order in one process
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--cases", "1", "--workers", "2"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_replay_reads_each_run_property():
    # run documents spell the property "property": a repro document
    # without the fuzz provenance block still checks it
    text = ("application replay {\n  agent a\n  agent b\n"
            "  place a -> b push 1 pop 1 capacity 2\n}\n")
    doc = {"models": {"replay": {"frontend": "sigpml", "text": text}},
           "runs": [{"kind": "check", "model": "replay",
                     "property": "AG !deadlock", "max_states": 500}]}
    provenance = dict(doc, fuzz={"property": "AG !deadlock"})
    assert replay_document(doc)["checks"] \
        == replay_document(provenance)["checks"]


def test_replay_document_rejects_multi_model_docs():
    with pytest.raises(ValueError):
        replay_document({"models": {}, "runs": []})
