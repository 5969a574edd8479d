"""Diagnostics core: registry integrity, report round-trips, filtering."""

import pytest

from repro.lint import (
    RULES,
    Diagnostic,
    LintError,
    LintReport,
    lint_handle,
    rule_catalog,
)
from repro.lint.core import SEVERITIES, _ensure_rules_loaded

EXPECTED_RULES = {
    "SDF001", "SDF002", "SDF003", "SDF004", "SDF005",
    "CCS001", "CCS002", "CCS003", "CCS004",
    "MOC001", "MOC002",
    "DEP001", "DEP002", "DEP003", "DEP004",
    "KER001", "KER002", "KER003", "KER004",
    "ENC001",
}


class TestRegistry:
    def test_full_catalog_is_registered(self):
        _ensure_rules_loaded()
        assert set(RULES) == EXPECTED_RULES

    def test_catalog_entries_are_complete(self):
        for entry in rule_catalog():
            assert entry["rule"] in EXPECTED_RULES
            assert entry["severity"] in SEVERITIES
            assert entry["requires"]
            assert entry["summary"]
            assert entry["confirm"]

    def test_every_error_rule_has_a_confirmation_story(self):
        _ensure_rules_loaded()
        for rule in RULES.values():
            if rule.severity == "error":
                assert rule.confirm != "none", rule.rule_id


class TestDiagnostic:
    def test_roundtrip(self):
        diagnostic = Diagnostic(rule="SDF001", severity="error",
                                path="m.a", message="boom",
                                data={"agents": ["a"]})
        assert Diagnostic.from_doc(diagnostic.to_doc()) == diagnostic

    def test_unknown_severity_rejected(self):
        with pytest.raises(LintError):
            Diagnostic(rule="X", severity="fatal", path="p", message="m")


class TestLintHandle:
    def test_clean_model_report(self, clean_chain):
        report = lint_handle(clean_chain)
        assert report.ok
        assert report.errors == []
        assert report.rules_run > 0
        # the repetition vector is surfaced as an info finding
        assert any(d.rule == "SDF004" for d in report.diagnostics)

    def test_rule_filter(self, clean_chain):
        report = lint_handle(clean_chain, rules=("SDF004",))
        assert report.rules_run == 1
        assert {d.rule for d in report.diagnostics} <= {"SDF004"}

    def test_unknown_rule_filter_rejected(self, clean_chain):
        with pytest.raises(LintError, match="NOPE01"):
            lint_handle(clean_chain, rules=("NOPE01",))

    def test_output_is_deterministic(self, clean_chain):
        first = lint_handle(clean_chain).to_doc()
        second = lint_handle(clean_chain).to_doc()
        assert first == second

    def test_report_roundtrip(self, clean_chain):
        report = lint_handle(clean_chain)
        doc = report.to_doc()
        back = LintReport.from_doc(doc)
        assert back.to_doc() == doc
        assert back.ok == report.ok


class TestReportCounts:
    def test_counts_by_severity(self):
        report = LintReport(model="m", frontend="f", diagnostics=[
            Diagnostic(rule="A", severity="error", path="p", message="1"),
            Diagnostic(rule="B", severity="warning", path="p", message="2"),
            Diagnostic(rule="C", severity="warning", path="p", message="3"),
        ])
        doc = report.to_doc()
        assert doc["counts"] == {"error": 1, "warning": 2, "info": 0}
        assert not doc["ok"]
        assert not report.ok


def counting(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so each call is recorded; returns the log."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestRunOnce:
    """With every rule on, each shared analysis runs once per handle,
    however many rule IDs read it."""

    def test_one_conformance_walk_for_four_rules(self, monkeypatch):
        from repro.lint import rules_kernel
        from tests.lint.test_artifact_pins import kernel_handle

        calls = counting(monkeypatch, rules_kernel,
                         "conformance_diagnostics")
        report = lint_handle(kernel_handle())
        assert len(calls) == 1
        assert report.rules_run == 4
        assert {d.rule for d in report.diagnostics} == {
            "KER001", "KER002", "KER003", "KER004"}

    def test_one_local_walk_per_automaton(self, monkeypatch):
        from repro.lint import rules_moccml
        from tests.lint.test_artifact_pins import moccml

        handle = moccml("automata", ["x", "y"], [
            ("Gate", ("x", "y")), ("Fork", ("x",)), ("Gate", ("y", "x"))])
        calls = counting(monkeypatch, rules_moccml, "local_walk")
        report = lint_handle(handle)
        assert [runtime.label for (runtime,) in calls] == [
            runtime.label for runtime in handle.execution_model.constraints]
        assert len(calls) == 3
        fired = {d.rule for d in report.diagnostics}
        assert {"MOC001", "MOC002"} <= fired

    def test_one_component_analysis_for_four_rules(self, monkeypatch):
        from repro.lint import rules_sdf
        from repro.workbench import load
        from tests.lint.test_artifact_pins import INTERLEAVED, TWO_COMPONENTS

        walks = counting(monkeypatch, rules_sdf, "components")
        runs = counting(monkeypatch, rules_sdf, "class_s_schedule")
        fired = set()
        for text in (INTERLEAVED, TWO_COMPONENTS):
            report = lint_handle(load(text))
            fired |= {d.rule for d in report.diagnostics}
        assert len(walks) == 2  # one per lint_handle
        # one unbounded and one bounded run per consistent component:
        # three in the first graph, one in the second
        assert len(runs) == 2 * 4
        assert {"SDF001", "SDF004", "SDF005"} <= fired

    def test_restricted_run_keeps_only_requested_ids(self):
        from tests.lint.test_artifact_pins import kernel_handle

        report = lint_handle(kernel_handle(), rules=("KER002",))
        assert report.rules_run == 1
        assert [d.rule for d in report.diagnostics] == ["KER002"]


@pytest.fixture()
def scratch_rules():
    """Register test rules freely; the registry is restored after."""
    _ensure_rules_loaded()
    saved = dict(RULES)
    yield
    RULES.clear()
    RULES.update(saved)


def stacked(emitted):
    """A function registered as TST001 (error) and TST002 (warning)
    that yields *emitted* ``(rule, severity)`` labels."""
    from repro.lint import register_rule

    @register_rule("TST001", severity="error", requires="application",
                   summary="test rule one", confirm="test")
    @register_rule("TST002", severity="warning", requires="application",
                   summary="test rule two", confirm="test")
    def rule(handle):
        for rule_id, severity in emitted:
            yield Diagnostic(rule=rule_id, severity=severity,
                             path=f"m.{rule_id}", message="m")

    return rule


class TestStackedRules:
    def test_one_function_serves_both_ids(self, scratch_rules, clean_chain):
        stacked([("TST001", "error"), ("TST002", "warning")])
        assert RULES["TST001"].fn is RULES["TST002"].fn
        report = lint_handle(clean_chain, rules=("TST001", "TST002"))
        assert report.rules_run == 2
        assert [d.rule for d in report.diagnostics] == ["TST001", "TST002"]

    def test_unrequested_id_is_dropped(self, scratch_rules, clean_chain):
        stacked([("TST001", "error"), ("TST002", "warning")])
        report = lint_handle(clean_chain, rules=("TST002",))
        assert report.rules_run == 1
        assert [d.rule for d in report.diagnostics] == ["TST002"]

    @pytest.mark.parametrize("label", [
        ("SDF004", "info"),  # registered, but to another function
        ("TST003", "error"),  # not registered at all
        ("TST002", "error"),  # its own ID with the other ID's severity
    ])
    def test_mislabeled_diagnostic_raises(self, scratch_rules,
                                          clean_chain, label):
        stacked([("TST001", "error"), label])
        with pytest.raises(LintError, match="must agree"):
            lint_handle(clean_chain, rules=("TST001",))
