"""Oracle failure taxonomy: a broken engine can never pass silently."""

import repro.engine.ctl as ctl
from repro.fuzz import FuzzCase, build_case, check_case, replay_document
from repro.fuzz.oracle import ORACLE_CONFIGS

#: a generated case whose explicit exploration truncates — the kind of
#: case the truncation-soundness rule exists for (build_case(11, 10) is
#: deterministic for a fixed rng GENERATION: same structure, properties
#: and budget forever; re-pin when GENERATION bumps)
BUGGY_SEED, BUGGY_INDEX = 11, 10


def _simple_case(max_states=2500, properties=("EF deadlock",)):
    structure = {
        "name": "taxonomy",
        "agents": [["a0", 0], ["a1", 0]],
        "places": [["a0", "a1", 1, 1, 2, 0]],
    }
    return FuzzCase(
        seed=0,
        index=0,
        frontend="sigpml",
        structure=structure,
        properties=list(properties),
        max_states=max_states,
    )


def _break_truncation_guard(monkeypatch):
    """Revert the truncated-space UNKNOWN guard: pretend the frontier is
    fully explored, so the explicit backend claims definitive verdicts
    it cannot justify — the known soundness bug of the issue."""

    def broken(space):
        checker = ctl._ExplicitChecker(space)
        checker.frontier = frozenset()
        checker.must_dead = checker.may_dead
        return checker

    monkeypatch.setattr(ctl, "_explicit_checker", broken)


def test_healthy_engine_is_clean():
    outcome = check_case(_simple_case())
    assert outcome.ok, [f.detail for f in outcome.failures]
    assert outcome.checks > 0


def test_truncated_case_is_clean_when_engine_is_sound():
    case, handle = build_case(BUGGY_SEED, BUGGY_INDEX)
    assert case.max_states < 2500, "the pinned case must truncate"
    outcome = check_case(case, handle)
    assert outcome.ok, [f.detail for f in outcome.failures]


def test_broken_truncation_guard_is_a_disagreement(monkeypatch):
    _break_truncation_guard(monkeypatch)
    case, handle = build_case(BUGGY_SEED, BUGGY_INDEX)
    outcome = check_case(case, handle)
    assert not outcome.ok, "a soundness bug must never pass silently"
    kinds = {failure.kind for failure in outcome.failures}
    assert "disagreement" in kinds
    failure = next(
        f for f in outcome.failures if f.kind == "disagreement"
    )
    assert failure.repro is not None
    assert set(failure.repro) >= {"models", "runs", "fuzz"}
    assert len(failure.repro["runs"]) == len(ORACLE_CONFIGS)


def test_repro_doc_replays_the_disagreement(monkeypatch):
    _break_truncation_guard(monkeypatch)
    case, handle = build_case(BUGGY_SEED, BUGGY_INDEX)
    outcome = check_case(case, handle)
    doc = next(
        f for f in outcome.failures if f.kind == "disagreement"
    ).repro
    # with the bug still present the document reproduces the failure
    report = replay_document(doc)
    assert not report["ok"]
    assert any(
        failure["kind"] == "disagreement"
        for failure in report["failures"]
    )
    # with the bug fixed the same document comes up clean
    monkeypatch.undo()
    assert replay_document(doc)["ok"]


def test_engine_crash_is_a_crash_failure(monkeypatch):
    def explode(space):
        raise RuntimeError("synthetic checker crash")

    monkeypatch.setattr(ctl, "_explicit_checker", explode)
    outcome = check_case(_simple_case())
    assert not outcome.ok
    assert any(failure.kind == "crash" for failure in outcome.failures)
    crash = next(f for f in outcome.failures if f.kind == "crash")
    assert "synthetic checker crash" in crash.detail


def test_unreplayable_witness_is_a_witness_failure(monkeypatch):
    """A backend reporting a fabricated trace must be caught by the
    replay rule, whatever its verdict says."""
    from repro.fuzz.generators import load_case_model

    real_check_space = ctl.check_space

    def lying(space, prop, witness=True):
        result = real_check_space(space, prop, witness=witness)
        if result.witness_steps is not None:
            result.witness_steps = [frozenset({"no.such.event"})]
        return result

    case = _simple_case()
    handle = load_case_model(case)
    # holds with a non-empty witness trace (a1 can only start after a0
    # produced a token, so the path is at least one step long)
    case.properties = ["EF occurs(a1.start)"]
    monkeypatch.setattr(ctl, "check_space", lying)
    outcome = check_case(case, handle)
    assert not outcome.ok
    kinds = {failure.kind for failure in outcome.failures}
    assert "witness" in kinds


def test_generated_cases_are_lint_clean():
    """build_case redraws until the static analyzer accepts, so every
    emitted model is ERROR-free across all five front-end lanes."""
    from repro.lint import lint_handle

    for index in range(5):  # one case per front-end lane
        _case, handle = build_case(20260808, index)
        report = lint_handle(handle)
        assert report.errors == [], [d.message for d in report.errors]


def test_defective_structure_is_a_static_failure():
    """A hand-built rate-inconsistent model (the kind build_case can no
    longer emit) trips the phase-0 static oracle."""
    case = FuzzCase(
        seed=0,
        index=0,
        frontend="sigpml",
        structure={
            "name": "statically_bad",
            "agents": [["a0", 0], ["a1", 0]],
            "places": [["a0", "a1", 2, 1, 4, 0],
                       ["a0", "a1", 1, 1, 4, 0]],
        },
        properties=[],
        max_states=300,
    )
    outcome = check_case(case)
    static = [f for f in outcome.failures if f.kind == "static"]
    assert static, [f.detail for f in outcome.failures]
    assert "SDF001" in static[0].detail
    # the repro document leads with a lint run, then the exploration
    runs = static[0].repro["runs"]
    assert [run["kind"] for run in runs] == ["lint", "explore"]


def test_lying_predictor_is_a_static_failure(monkeypatch):
    import repro.engine.encodability as encodability

    real_predict = encodability.predict

    def lying(model, **kwargs):
        report = real_predict(model, **kwargs)
        report.encodable = not report.encodable
        for verdict in report.verdicts:
            verdict.encodable = not verdict.encodable
        return report

    monkeypatch.setattr(encodability, "predict", lying)
    outcome = check_case(_simple_case())
    static = [f for f in outcome.failures if f.kind == "static"]
    assert static, [f.detail for f in outcome.failures]
    assert "predictor" in static[0].detail
