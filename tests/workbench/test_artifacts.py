"""RunSpec/RunResult artifacts: JSON round-trips and payloads."""

import json

import pytest

from repro.errors import SerializationError
from repro.workbench import (
    AnalyzeSpec,
    CampaignSpec,
    CheckSpec,
    ExploreSpec,
    RunResult,
    RunSpec,
    SimulateSpec,
    Workbench,
)

APPLICATION = """
application demo {
  agent src
  agent dst
  place src -> dst push 1 pop 1 capacity 2
}
"""


#: one run document per refusal of the spec schema (the model name is
#: added by each user): (id, document, the field the refusal names)
BAD_RUNS = [
    ("unknown-field",
     {"kind": "check", "property": "AG !deadlock",
      "relation_mode": "monolithic"}, "relation_mode"),
    ("field-of-another-kind",
     {"kind": "explore", "property": "AG !deadlock"}, "property"),
    ("steps-on-explore", {"kind": "explore", "steps": 5}, "steps"),
    ("unknown-option", {"kind": "simulate", "options": {"bogus": 1}},
     "bogus"),
    ("option-of-another-kind",
     {"kind": "simulate", "options": {"include_graph": True}},
     "include_graph"),
    ("options-not-an-object", {"kind": "simulate", "options": [1, 2]},
     "options"),
    ("count-is-a-string", {"kind": "explore", "max_states": "lots"},
     "max_states"),
    ("negative-count", {"kind": "explore", "max_depth": -1}, "max_depth"),
    ("bool-is-not-a-count", {"kind": "simulate", "steps": True}, "steps"),
    ("flag-is-a-string", {"kind": "explore", "include_empty": "false"},
     "include_empty"),
    ("option-flag-is-a-number",
     {"kind": "check", "property": "AG !deadlock",
      "options": {"include_witness": 0}}, "include_witness"),
    ("rules-not-a-list", {"kind": "lint", "rules": 5}, "rules"),
    ("watch-not-strings", {"kind": "campaign", "watch": [1]}, "watch"),
    ("policy-is-a-number", {"kind": "simulate", "policy": 5}, "policy"),
    ("policy-without-name", {"kind": "simulate", "policy": {"seed": 1}},
     "name"),
    ("policy-unknown-keyword",
     {"kind": "simulate", "policy": {"name": "asap", "bogus": 1}}, "bogus"),
    ("priority-weight-is-a-string",
     {"kind": "simulate",
      "policy": {"name": "priority", "weights": {"src.start": "x"}}},
     "weights"),
    ("priority-weight-is-null",
     {"kind": "simulate",
      "policy": {"name": "priority", "weights": {"src.start": None}}},
     "weights"),
    # ASAP has one path: its retired threshold is refused at any value
    ("asap-threshold-is-retired",
     {"kind": "simulate",
      "policy": {"name": "asap", "symbolic_threshold": 0}},
     "symbolic_threshold"),
    ("asap-threshold-is-a-string",
     {"kind": "simulate",
      "policy": {"name": "asap", "symbolic_threshold": "x"}},
     "symbolic_threshold"),
    ("asap-threshold-is-null",
     {"kind": "simulate",
      "policy": {"name": "asap", "symbolic_threshold": None}},
     "symbolic_threshold"),
    ("random-seed-is-a-bool",
     {"kind": "simulate", "policy": {"name": "random", "seed": True}},
     "seed"),
    ("replay-step-is-a-string",
     {"kind": "simulate", "policy": {"name": "replay", "steps": ["ab"]}},
     "steps"),
    ("campaign-priority-weight-is-a-string",
     {"kind": "campaign",
      "policies": ["asap",
                   {"name": "priority", "weights": {"src.start": "x"}}]},
     "policies"),
    ("campaign-asap-threshold-is-null",
     {"kind": "campaign",
      "policies": [{"name": "asap", "symbolic_threshold": None}]},
     "policies"),
    ("explore-strategy-typo", {"kind": "explore", "strategy": "symbolc"},
     "strategy"),
    # exploration has one path: an explore document names no strategy
    ("explore-strategy-symbolic",
     {"kind": "explore", "strategy": "symbolic"}, "strategy"),
    ("explore-strategy-explicit",
     {"kind": "explore", "strategy": "explicit"}, "strategy"),
    ("check-strategy-typo",
     {"kind": "check", "property": "AG !deadlock", "strategy": "symbolc"},
     "strategy"),
    ("check-without-property", {"kind": "check"}, "property"),
    ("check-with-empty-property", {"kind": "check", "property": ""},
     "property"),
    ("model-not-a-string", {"kind": "simulate", "model": 5}, "model"),
    ("label-not-a-string", {"kind": "analyze", "label": 1}, "label"),
]


@pytest.fixture()
def workbench():
    wb = Workbench()
    wb.add(APPLICATION, name="demo")
    return wb


class TestRunSpec:
    @pytest.mark.parametrize("spec", [
        SimulateSpec("m", policy="asap", steps=7),
        SimulateSpec("m", policy={"name": "random", "seed": 3}),
        ExploreSpec("m", max_states=99, max_depth=4, maximal_only=True),
        CampaignSpec("m", steps=12, watch=["a.start"],
                     policies=["asap", {"name": "random", "seed": 1}]),
        AnalyzeSpec("m", label="static"),
        CheckSpec("m", "AG !deadlock"),
        CheckSpec("m", "AF occurs(dst.start)", strategy="explicit",
                  max_states=77, max_depth=3, include_empty=True),
    ])
    def test_round_trip(self, spec):
        clone = RunSpec.from_json(spec.to_json())
        assert clone.to_json() == spec.to_json()
        assert clone.kind == spec.kind
        assert clone.model == spec.model

    def test_bad_kind_rejected(self):
        with pytest.raises(SerializationError, match="unknown run kind"):
            RunSpec(kind="fuzz", model="m")

    @pytest.mark.parametrize("doc, match", [
        ({"model": "m"}, "'kind'"),
        ({"kind": "simulate"}, "'model'"),
        ({"kind": "simulate", "model": "m", "bogus": 1}, "unknown run-spec"),
    ] + [({"model": "m", **doc}, field) for _id, doc, field in BAD_RUNS],
        ids=["no-kind", "no-model", "bogus-field"]
        + [case[0] for case in BAD_RUNS])
    def test_from_doc_validates(self, doc, match):
        with pytest.raises(SerializationError, match=match):
            RunSpec.from_doc(doc)

    @pytest.mark.parametrize("build, field", [
        (lambda: RunSpec(kind="explore", model="m", prop="AG !deadlock"),
         "'property'"),
        (lambda: RunSpec(kind="lint", model="m", steps=3), "'steps'"),
        (lambda: RunSpec(kind="simulate", model="m", include_graph=True),
         "'include_graph'"),
        (lambda: ExploreSpec("m", max_states=-1), "'max_states'"),
        (lambda: RunSpec(kind="explore", model="m", strategy="symbolic"),
         "'strategy'"),
        (lambda: CheckSpec("m", ""), "'property'"),
        (lambda: SimulateSpec("m", include_trace="no"), "'include_trace'"),
    ], ids=["prop-on-explore", "steps-on-lint", "graph-on-simulate",
            "negative-max-states", "strategy-typo", "empty-property",
            "include-trace-not-a-flag"])
    def test_constructor_validates(self, build, field):
        with pytest.raises(SerializationError, match=field):
            build()

    def test_helpers_take_no_option_bag(self):
        # a mistyped keyword is a TypeError, never a stored option
        with pytest.raises(TypeError):
            CheckSpec("m", "AG !deadlock", max_state=3)
        with pytest.raises(TypeError):
            ExploreSpec("m", relation_mode="monolithic")
        assert not hasattr(CheckSpec("m", "AG !deadlock"), "options")

    def test_one_campaign_steps_default(self):
        # a hand-written campaign document runs what the helper, the
        # Workbench wrapper and the CLI run by default
        assert RunSpec.from_doc({"kind": "campaign", "model": "m"}).steps \
            == CampaignSpec("m").steps == 40

    def test_null_takes_the_default(self):
        spec = RunSpec.from_doc({"kind": "explore", "model": "m",
                                 "max_states": None,
                                 "options": {"include_graph": None}})
        assert spec.max_states == 10_000 and spec.include_graph is False
        assert spec.to_doc() == ExploreSpec("m").to_doc()

    def test_option_at_its_default_is_dropped(self):
        # like every top-level default: one document per meaning
        assert "options" not in ExploreSpec("m", include_graph=False).to_doc()
        assert "options" not in RunSpec.from_doc(
            {"kind": "simulate", "model": "m",
             "options": {"include_trace": True}}).to_doc()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SerializationError, match="invalid"):
            RunSpec.from_json("{nope")

    def test_policy_instances_do_not_serialize(self):
        from repro.engine import AsapPolicy
        spec = SimulateSpec("m", policy=AsapPolicy())
        with pytest.raises(Exception):
            spec.to_json()

    def test_check_spec_needs_a_property(self):
        with pytest.raises(SerializationError, match="property"):
            RunSpec(kind="check", model="m").to_doc()

    def test_check_doc_defaults_to_auto_strategy(self):
        # hand-written batch docs without a strategy must behave like
        # CheckSpec/CLI (auto), while explore reads no strategy
        spec = RunSpec.from_doc(
            {"kind": "check", "model": "m", "property": "AG !deadlock"})
        assert spec.strategy == "auto"
        assert RunSpec.from_doc(
            {"kind": "explore", "model": "m"}).strategy is None

    def test_check_spec_doc_shape(self):
        doc = CheckSpec("m", "AG !deadlock").to_doc()
        assert doc["kind"] == "check"
        assert doc["property"] == "AG !deadlock"
        assert "strategy" not in doc  # auto is the check default
        clone = RunSpec.from_doc(doc)
        assert clone.prop == "AG !deadlock"
        assert clone.strategy == "auto"
        explicit = CheckSpec("m", "true", strategy="explicit").to_doc()
        assert explicit["strategy"] == "explicit"


class TestCheckResults:
    def test_check_payload_holds(self, workbench):
        result = workbench.check("demo", "AG !deadlock")
        assert result.ok
        assert result.data["verdict"] == "holds"
        assert result.data["truncated"] is False
        assert result.data["strategy"] in ("explicit", "symbolic")
        assert "propertie" not in result.data  # payload is the check doc

    def test_check_counterexample_trace_rebuilds(self, workbench):
        result = workbench.check("demo", "AG occurs(src.start)")
        assert result.ok
        assert result.data["verdict"] == "fails"
        assert result.data["witness_kind"] == "counterexample"
        trace = result.trace()
        assert len(trace) == len(result.data["trace"]) > 0

    def test_check_unknown_propagates_truncation(self, workbench):
        result = workbench.run(CheckSpec(
            "demo", "AG !deadlock", strategy="explicit", max_states=1))
        assert result.ok
        assert result.data["verdict"] == "unknown"
        assert result.data["truncated"] is True
        assert "truncated" in result.data["reason"]
        assert "UNKNOWN" in result.summary()

    def test_check_summary_line(self, workbench):
        result = workbench.check("demo", "EF occurs(dst.start)")
        line = result.summary()
        assert "HOLDS" in line and "state(s)" in line
        assert "witness" in line

    def test_bad_property_is_an_error_result(self, workbench):
        result = workbench.check("demo", "AG (((")
        assert not result.ok
        assert "property syntax" in result.error

    def test_check_result_json_round_trip(self, workbench):
        result = workbench.check("demo", "AG !deadlock")
        clone = RunResult.from_json(result.to_json())
        assert clone.to_json() == result.to_json()
        assert clone.data["verdict"] == "holds"

    def test_witness_suppressed_via_options(self, workbench):
        result = workbench.run(CheckSpec(
            "demo", "EF occurs(dst.start)", include_witness=False))
        assert result.ok
        assert "trace" not in result.data


class TestRunResultPayloads:
    def test_simulate_payload_and_trace(self, workbench):
        result = workbench.simulate("demo", steps=6)
        assert result.ok
        data = result.data
        assert data["steps_run"] == 6
        assert data["policy"] == "asap"
        assert data["counts"]["src.start"] > 0
        trace = result.trace()
        assert len(trace) == 6
        assert trace.counts() == data["counts"]

    def test_explore_payload(self, workbench):
        result = workbench.explore("demo", include_graph=True)
        assert result.data["summary"]["states"] == 3
        space = result.statespace()
        assert space.n_states == 3
        assert not space.truncated

    def test_explore_without_graph(self, workbench):
        result = workbench.explore("demo")
        assert "statespace" not in result.data
        with pytest.raises(SerializationError, match="no state-space"):
            result.statespace()

    def test_campaign_payload(self, workbench):
        result = workbench.campaign("demo", steps=10)
        rows = result.campaign_rows()
        names = {row.policy for row in rows}
        assert names == {"asap", "minimal", "random"}
        # default watch: every agent start
        assert result.data["watch"] == ["src.start", "dst.start"]

    def test_analyze_payload(self, workbench):
        result = workbench.analyze("demo")
        assert result.data["consistent"]
        assert result.data["repetition"] == {"src": 1, "dst": 1}
        assert result.data["deadlock_free"]

    def test_analyze_requires_application(self, workbench):
        from repro.engine import ExecutionModel
        workbench.add(ExecutionModel(["x"], name="bare"))
        result = workbench.analyze("bare")
        assert result.status == "error"
        assert "no DSL application" in result.error

    def test_round_trip_every_kind(self, workbench):
        results = [
            workbench.simulate("demo", steps=5),
            workbench.explore("demo", include_graph=True),
            workbench.campaign("demo", steps=5),
            workbench.analyze("demo"),
        ]
        for result in results:
            text = result.to_json()
            clone = RunResult.from_json(text)
            assert clone.to_json() == text
            # the doc is plain JSON end to end
            assert json.loads(text)["status"] == "ok"

    def test_error_results_round_trip(self, workbench):
        result = workbench.simulate("demo",
                                    policy={"name": "nope"}, steps=2)
        assert result.status == "error"
        clone = RunResult.from_json(result.to_json())
        assert clone.status == "error"
        assert clone.error == result.error
        assert not clone.ok

    def test_canonical_json_is_stable(self, workbench):
        one = workbench.simulate("demo", steps=6)
        two = workbench.simulate("demo", steps=6)
        assert one.to_json() == two.to_json()

    def test_from_doc_rejects_wrong_kind(self):
        with pytest.raises(SerializationError):
            RunResult.from_doc({"kind": "statespace", "format": 1})
        with pytest.raises(SerializationError):
            RunResult.from_doc({"kind": "simulate", "model": "m",
                                "format": 99})


class TestUniformReports:
    def test_run_result_report_dispatches(self, workbench):
        from repro.viz import run_result_report
        sim = run_result_report(workbench.simulate("demo", steps=4))
        assert "steps: 4" in sim
        exp = run_result_report(
            workbench.explore("demo", include_graph=True))
        assert "state space of" in exp
        camp = run_result_report(workbench.campaign("demo", steps=4))
        assert "asap" in camp
        ana = run_result_report(workbench.analyze("demo"))
        assert "repetition vector" in ana

    def test_report_of_error_result(self, workbench):
        from repro.viz import run_result_report
        result = workbench.simulate("demo", policy={"name": "nope"})
        assert "error" in run_result_report(result)


class TestExploreStrategySpec:
    """Exploration has one path: neither an explore spec nor its
    payload carries a strategy."""

    def test_strategy_is_refused(self):
        with pytest.raises(TypeError):
            ExploreSpec("demo", strategy="symbolic")
        with pytest.raises(SerializationError, match="strategy"):
            RunSpec.from_doc({"kind": "explore", "model": "demo",
                              "strategy": "explicit"})

    def test_default_strategy_omitted_from_doc(self):
        assert "strategy" not in ExploreSpec("demo").to_doc()
        assert RunSpec.from_doc(
            {"kind": "explore", "model": "demo"}).strategy is None

    def test_strategies_agree_through_the_workbench(self, workbench):
        explored = workbench.explore("demo", include_graph=True)
        model = workbench.handle("demo").execution_model
        compiled = model.kernel.transition_system(model).to_statespace()
        assert explored.data["statespace"] == json.loads(compiled.to_json())
        assert "strategy" not in explored.data

    def test_result_doc_carries_version(self, workbench):
        import repro
        doc = workbench.explore("demo").to_doc()
        assert doc["version"] == repro.__version__
        # round-trip re-stamps with the current build
        assert RunResult.from_doc(doc).to_doc()["version"] == \
            repro.__version__
