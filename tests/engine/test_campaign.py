"""Tests for simulation campaigns."""

from repro.engine.campaign import (
    CampaignRow,
    campaign,
    default_policies,
    format_campaign,
)
from repro.sdf import SdfBuilder, weave_sdf


def pipeline_model():
    builder = SdfBuilder("pipe")
    builder.agent("a")
    builder.agent("b")
    builder.connect("a", "b", capacity=2)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


class TestCampaign:
    def test_rows_per_policy_kind(self):
        rows = campaign(pipeline_model(), steps=20,
                        watch_events=["b.start"])
        names = {row.policy for row in rows}
        assert names == {"asap", "minimal", "random"}
        random_row = next(row for row in rows if row.policy == "random")
        assert random_row.runs == 5  # default seeds

    def test_model_not_mutated(self):
        model = pipeline_model()
        before = model.configuration()
        campaign(model, steps=10, watch_events=["b.start"])
        assert model.configuration() == before

    def test_throughput_recorded(self):
        rows = campaign(pipeline_model(), steps=30,
                        watch_events=["a.start", "b.start"])
        for row in rows:
            assert set(row.throughput) == {"a.start", "b.start"}
            assert 0.0 <= row.throughput["b.start"] <= 1.0
            assert row.deadlock_rate == 0.0

    def test_asap_dominates_minimal_on_parallel_model(self):
        builder = SdfBuilder("wide")
        for index in range(3):
            builder.agent(f"src{index}")
            builder.agent(f"dst{index}")
            builder.connect(f"src{index}", f"dst{index}", capacity=2)
        model, _app = builder.build()
        engine_model = weave_sdf(model).execution_model
        rows = {row.policy: row for row in campaign(
            engine_model, steps=20, watch_events=["dst0.start"])}
        assert rows["asap"].mean_parallelism \
            > rows["minimal"].mean_parallelism

    def test_format_table(self):
        rows = [CampaignRow(policy="asap", runs=1, steps=10,
                            deadlock_rate=0.0, mean_parallelism=2.5,
                            throughput={"x": 0.5})]
        table = format_campaign(rows)
        assert "asap" in table
        assert "0.5000" in table

    def test_custom_policies(self):
        from repro.engine import RandomPolicy
        rows = campaign(pipeline_model(), steps=10,
                        watch_events=["b.start"],
                        policies=[RandomPolicy(seed=1),
                                  RandomPolicy(seed=2)])
        assert len(rows) == 1
        assert rows[0].runs == 2

    def test_default_policies_structure(self):
        policies = default_policies(seeds=3)
        assert len(policies) == 5
