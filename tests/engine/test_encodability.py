"""Encodability predictor: verdicts, auto-strategy routing, telemetry."""

import pytest

from repro.engine.ctl import check
from repro.engine.encodability import COUNTERS, is_encodable, predict
from repro.errors import SymbolicEncodingError
from repro.obs import GLOBAL
from repro.pam.experiments import build_configuration
from repro.workbench import CcslSpec, load
from tests.engine.test_local_tables import deployed_chain


def counters():
    """The ``encodability.*`` counters on the shared obs registry."""
    return {name: GLOBAL.counter(f"encodability.{name}")
            for name in COUNTERS}


def delta(before):
    """How far each ``encodability.*`` counter moved since *before*."""
    return {name: value - before[name]
            for name, value in counters().items()}


def ccsl_model(name, events, constraints):
    return load(CcslSpec(name=name, events=events,
                         constraints=constraints)).execution_model


@pytest.fixture()
def unbounded():
    """Unbounded Precedes: no finite local encoding exists."""
    return ccsl_model("unb", [f"e{i}" for i in range(12)],
                      [("Precedes", ("e0", "e1"))])


@pytest.fixture()
def bounded():
    return ccsl_model("bnd", [f"e{i}" for i in range(12)],
                      [("Alternates", ("e0", "e1"))])


class TestPredict:
    def test_unbounded_precedes_is_unencodable(self, unbounded):
        report = predict(unbounded)
        assert not report.encodable
        assert report.blockers
        assert "every constraint" not in report.reason

    def test_alternates_is_encodable(self, bounded):
        report = predict(bounded)
        assert report.encodable
        assert report.blockers == []
        doc = report.to_doc()
        assert doc["encodable"] is True
        assert all(v["encodable"] for v in doc["constraints"])

    def test_prediction_matches_compile(self, unbounded, bounded):
        from repro.engine.symbolic import TransitionSystem

        with pytest.raises(SymbolicEncodingError):
            TransitionSystem(unbounded.clone())
        TransitionSystem(bounded.clone())  # must not raise
        assert not is_encodable(unbounded)
        assert is_encodable(bounded)


class TestDeploymentRuntimes:
    """The deployment runtimes are decided statically: a processor
    mutex is idle or held by one agent, a communication delay's matured
    tokens grow without bound. No local closure runs for either."""

    @pytest.mark.parametrize("make", [
        deployed_chain,
        lambda: build_configuration("mono"),
        lambda: build_configuration("dual"),
    ], ids=["deployed-chain", "pam-mono", "pam-dual"])
    def test_prediction_matches_compile_without_closure(self, make):
        from repro.engine.symbolic import TransitionSystem

        model = make()
        before = counters()
        report = predict(model)
        assert delta(before)["closure_fallbacks"] == 0
        try:
            TransitionSystem(model.clone())
        except SymbolicEncodingError:
            compiled = False
        else:
            compiled = True
        assert report.encodable == compiled

    def test_static_verdicts(self):
        from repro.deployment.mocc import (
            CommDelayRuntime,
            ProcessorMutexRuntime,
        )

        model = build_configuration("dual")
        verdicts = {v.label: v for v in predict(model).verdicts}
        for runtime in model.constraints:
            verdict = verdicts[runtime.label]
            if isinstance(runtime, ProcessorMutexRuntime):
                assert verdict.method == "static" and verdict.encodable
                assert verdict.bound == len(runtime.agents) + 1
            elif isinstance(runtime, CommDelayRuntime):
                assert verdict.method == "static"
                assert not verdict.encodable


class TestCounters:
    """The predictor counts on the shared obs registry, which keeps no
    private dict beside it."""

    def test_predict_counts_each_verdict(self, unbounded, bounded):
        before = counters()
        predict(bounded)
        predict(unbounded)
        predict(bounded)
        assert delta(before) == {
            "predicted_encodable": 2, "predicted_unencodable": 1,
            "closure_fallbacks": 0, "safety_net_raises": 0}

    def test_closure_fallback_counted(self, bounded):
        # Alternates has at most 2 local states: over a cap of 1 the
        # static bound is inconclusive and the local closure decides
        before = counters()
        report = predict(bounded, max_local_states=1)
        assert [v.method for v in report.verdicts] == ["closure"]
        assert delta(before) == {
            "predicted_encodable": 0, "predicted_unencodable": 1,
            "closure_fallbacks": 1, "safety_net_raises": 0}

    def test_obs_counter_table_lists_every_counter(self):
        import repro.obs

        for name in COUNTERS:
            assert f"``encodability.{name}``" in repro.obs.__doc__


class TestAutoRouting:
    """check(strategy='auto') consults the predictor instead of
    compiling blind; the SymbolicEncodingError handler stays as a
    safety net."""

    def test_auto_skips_doomed_compile(self, unbounded):
        before = counters()
        result = check(unbounded, "AG !deadlock", strategy="auto",
                       max_states=50)
        assert result.strategy == "explicit"
        assert result.truncated
        moved = delta(before)
        assert moved["predicted_unencodable"] == 1
        assert moved["safety_net_raises"] == 0

    def test_check_auto_routes_to_explicit(self, unbounded):
        before = counters()
        result = check(unbounded, "EF occurs(e1)", strategy="auto",
                       max_states=50)
        assert result.verdict.name == "HOLDS"
        assert delta(before)["safety_net_raises"] == 0

    def test_symbolic_strategy_still_raises(self, unbounded):
        with pytest.raises(SymbolicEncodingError):
            check(unbounded, "AG !deadlock", strategy="symbolic")

    def test_safety_net_counts_predictor_misses(self, unbounded,
                                                monkeypatch):
        import repro.engine.encodability as encodability

        before = counters()
        monkeypatch.setattr(encodability, "is_encodable",
                            lambda model: True)  # predictor lies
        result = check(unbounded, "AG !deadlock", strategy="auto",
                       max_states=50)
        assert result.truncated  # explicit fallback still explored
        assert delta(before)["safety_net_raises"] == 1
