"""StateSpace JSON round-trips and maximal-only exploration agreement."""

import pytest

from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.engine import ExecutionModel, StateSpace, explore
from repro.errors import SerializationError
from repro.sdf import SdfBuilder, weave_sdf


def sdf_chain(length=3, capacity=2):
    builder = SdfBuilder(f"rt-chain{length}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index+1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


class TestToFromJson:
    def test_round_trip_preserves_everything(self):
        space = explore(sdf_chain(), max_states=5000)
        reloaded = StateSpace.from_json(space.to_json())
        assert reloaded.name == space.name
        assert reloaded.initial == space.initial
        assert reloaded.truncated == space.truncated
        assert reloaded.events == space.events
        assert reloaded.summary() == space.summary()
        for node, data in space.graph.nodes(data=True):
            rdata = reloaded.graph.nodes[node]
            assert rdata["accepting"] == data["accepting"]
            assert rdata["depth"] == data["depth"]
        edges = sorted((u, v, tuple(sorted(d["step"])))
                       for u, v, d in space.graph.edges(data=True))
        redges = sorted((u, v, tuple(sorted(d["step"])))
                        for u, v, d in reloaded.graph.edges(data=True))
        assert edges == redges

    def test_round_trip_preserves_frontier_and_truncated(self):
        # unbounded precedence -> infinite space -> truncation via depth
        model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
        space = explore(model, max_states=5000, max_depth=3)
        assert space.truncated
        frontier = {node for node, data in space.graph.nodes(data=True)
                    if data.get("frontier")}
        assert frontier, "depth-bounded exploration must mark frontier nodes"
        reloaded = StateSpace.from_json(space.to_json())
        assert reloaded.truncated
        refrontier = {node for node, data
                      in reloaded.graph.nodes(data=True)
                      if data.get("frontier")}
        assert refrontier == frontier
        # frontier nodes are not deadlocks in either copy
        assert reloaded.deadlocks() == space.deadlocks()
        assert reloaded.summary() == space.summary()

    def test_round_trip_after_state_budget_truncation(self):
        model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
        space = explore(model, max_states=4)
        assert space.truncated
        reloaded = StateSpace.from_json(space.to_json())
        assert reloaded.truncated
        assert reloaded.summary() == space.summary()

    def test_double_round_trip_is_stable(self):
        space = explore(sdf_chain(length=2), max_states=1000)
        once = space.to_json()
        assert StateSpace.from_json(once).to_json() == once

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SerializationError):
            StateSpace.from_json("not json at all {")
        with pytest.raises(SerializationError):
            StateSpace.from_json('{"kind": "trace"}')


class TestMaximalOnlyAgreement:
    @pytest.mark.parametrize("length,capacity", [(3, 1), (3, 2), (4, 2)])
    def test_max_parallelism_matches_full_space(self, length, capacity):
        model = sdf_chain(length=length, capacity=capacity)
        full = explore(model, max_states=50000)
        reduced = explore(model, max_states=50000, maximal_only=True)
        assert not full.truncated and not reduced.truncated
        assert reduced.max_parallelism() == full.max_parallelism()
        assert reduced.n_transitions <= full.n_transitions
        # every maximal-only step also labels a full-space transition
        assert reduced.distinct_steps() <= full.distinct_steps()

    def test_ccsl_model_agreement(self):
        model = ExecutionModel(
            ["a", "b", "c"],
            [AlternatesRuntime("a", "b"), AlternatesRuntime("b", "c")])
        full = explore(model, max_states=10000)
        reduced = explore(model, max_states=10000, maximal_only=True)
        assert reduced.max_parallelism() == full.max_parallelism()
