"""Static↔dynamic cross-check: every lint claim must replay on the
engine, and the encodability predictor must match the actual compile."""

from types import SimpleNamespace

from repro.lint import crosscheck_corpus, crosscheck_handle, lint_handle
from repro.lint.core import Diagnostic, LintReport
from repro.workbench import CcslSpec, load
from tests.engine.test_symbolic_equivalence import CORPUS
from tests.lint.conftest import CLEAN_CHAIN, INCONSISTENT, STARVED_CYCLE


class TestConfirmedClaims:
    def test_clean_model_agrees(self, clean_chain):
        result = crosscheck_handle(clean_chain)
        assert result["agree"], result["mismatches"]
        # the repetition-vector info claim was replayed via an ASAP run
        assert any(check["kind"] == "repetition"
                   for check in result["checks"])

    def test_inconsistent_graph_deadlock_confirms(self):
        result = crosscheck_handle(load(INCONSISTENT))
        assert result["agree"], result["mismatches"]
        assert any(check["kind"] == "deadlock" and check["ok"]
                   for check in result["checks"])

    def test_starved_cycle_deadlock_confirms(self):
        result = crosscheck_handle(load(STARVED_CYCLE))
        assert result["agree"], result["mismatches"]

    def test_dead_events_confirm(self):
        handle = load(CcslSpec(name="cycle", events=["a", "b"],
                               constraints=[("Alternates", ("a", "b")),
                                            ("Alternates", ("b", "a"))]))
        result = crosscheck_handle(handle)
        assert result["agree"], result["mismatches"]
        dead = [check for check in result["checks"]
                if check["kind"] == "dead-event"]
        assert len(dead) == 2 and all(check["ok"] for check in dead)


class TestPredictorAgreement:
    def test_unencodable_model_agrees(self):
        handle = load(CcslSpec(name="unbounded", events=["a", "b"],
                               constraints=[("Precedes", ("a", "b"))]))
        result = crosscheck_handle(handle)
        assert result["agree"], result["mismatches"]
        [enc] = [check for check in result["checks"]
                 if check["kind"] == "encodability"]
        assert "encodable=False" in enc["detail"]

    def test_encodable_model_agrees(self, alternating_pair):
        result = crosscheck_handle(alternating_pair)
        assert result["agree"], result["mismatches"]

    def test_lying_predictor_is_a_mismatch(self, monkeypatch,
                                           alternating_pair):
        import repro.engine.encodability as encodability

        real_predict = encodability.predict

        def lying(model, **kwargs):
            report = real_predict(model, **kwargs)
            report.encodable = not report.encodable
            return report

        monkeypatch.setattr(encodability, "predict", lying)
        result = crosscheck_handle(alternating_pair)
        assert any(mismatch.startswith("ENC001")
                   for mismatch in result["mismatches"])


class TestMismatchDetection:
    """A wrong claim must be reported, never silently dropped."""

    def _report_with(self, handle, diagnostic):
        return LintReport(model=handle.name, frontend=handle.frontend,
                          diagnostics=[diagnostic], rules_run=1)

    def test_false_dead_event_claim_is_a_mismatch(self, alternating_pair):
        bogus = Diagnostic(
            rule="CCS002", severity="error", path="pair.a",
            message="bogus", data={"confirm": {"kind": "dead-event",
                                               "event": "a"}})
        result = crosscheck_handle(
            alternating_pair, self._report_with(alternating_pair, bogus))
        assert not result["agree"]

    def test_error_without_confirm_is_a_mismatch(self, alternating_pair):
        naked = Diagnostic(rule="CCS002", severity="error",
                           path="pair.a", message="no confirm")
        result = crosscheck_handle(
            alternating_pair, self._report_with(alternating_pair, naked))
        assert any("without a confirm descriptor" in m
                   for m in result["mismatches"])

    def test_unknown_confirm_kind_is_a_mismatch(self, alternating_pair):
        weird = Diagnostic(
            rule="CCS002", severity="error", path="pair.a",
            message="weird", data={"confirm": {"kind": "martian"}})
        result = crosscheck_handle(
            alternating_pair, self._report_with(alternating_pair, weird))
        assert any("no confirmer" in m for m in result["mismatches"])


class TestCorpus:
    def test_corpus_aggregation(self, clean_chain, alternating_pair):
        handles = [clean_chain, alternating_pair,
                   load(INCONSISTENT), load(STARVED_CYCLE)]
        result = crosscheck_corpus(handles)
        assert result["models"] == 4
        assert result["agree"], result["mismatches"]
        assert result["checks"] >= 4  # at least the predictor per model

    def test_equivalence_corpus_is_green(self):
        """Every model the symbolic-equivalence harness already trusts
        must cross-check green: no unconfirmable lint error, and no
        predictor miss (the corpus is symbolic-encodable by design)."""
        handles = []
        for name in sorted(CORPUS):
            model = CORPUS[name]()
            handles.append(SimpleNamespace(
                name=name, frontend="moccml", execution_model=model,
                source_model=None, application=None, deployment=None,
                source_doc=None))
        result = crosscheck_corpus(handles)
        assert result["models"] == len(CORPUS)
        assert result["agree"], result["mismatches"]

    def test_component_projection_confirms(self):
        handle = load("""
        application twocomp {
          agent a
          agent b
          agent c
          agent d
          place a -> b push 1 pop 1 capacity 2
          place c -> d push 2 pop 1 capacity 4
          place c -> d push 1 pop 1 capacity 4
        }
        """)
        report = lint_handle(handle)
        assert any(d.rule == "SDF001" for d in report.errors)
        result = crosscheck_handle(handle, report)
        assert result["agree"], result["mismatches"]
