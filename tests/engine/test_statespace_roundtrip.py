"""StateSpace JSON round-trips, the artifact edge order, malformed
documents, and maximal-only exploration agreement."""

import json

import pytest

from repro.ccsl import AlternatesRuntime, PrecedesRuntime
from repro.engine import ExecutionModel, StateSpace, explore
from repro.errors import SerializationError
from repro.moccml.draw import statespace_to_dot
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
        assert reloaded.accepting == space.accepting
        assert reloaded.depth == space.depth
        assert reloaded.succ == space.succ
        assert reloaded.keys is None  # keys are engine-internal

    def test_round_trip_preserves_frontier_and_truncated(self):
        # unbounded precedence -> infinite space -> truncation via depth
        model = ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")])
        space = explore(model, max_states=5000, max_depth=3)
        assert space.truncated
        assert space.frontier, \
            "depth-bounded exploration must mark frontier nodes"
        reloaded = StateSpace.from_json(space.to_json())
        assert reloaded.truncated
        assert reloaded.frontier == space.frontier
        # frontier nodes are not deadlocks in either copy (b can always
        # wait for a: the space has none)
        assert reloaded.deadlocks() == space.deadlocks() == []
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


def two_state_doc():
    """A well-formed document: 0 -{a}-> 1 -{b}-> 0."""
    return {
        "format": 1, "kind": "statespace", "name": "pair", "initial": 0,
        "truncated": False, "events": ["a", "b"],
        "nodes": [
            {"id": 0, "accepting": True, "depth": 0, "frontier": False},
            {"id": 1, "accepting": True, "depth": 1, "frontier": False},
        ],
        "edges": [
            {"source": 0, "target": 1, "step": ["a"]},
            {"source": 1, "target": 0, "step": ["b"]},
        ],
    }


def dangling_target(doc):
    doc["edges"].append({"source": 0, "target": 7, "step": ["a"]})


def dangling_source(doc):
    doc["edges"].append({"source": 7, "target": 0, "step": ["a"]})


def repeated_node(doc):
    doc["nodes"].append(dict(doc["nodes"][0]))


def unknown_initial(doc):
    doc["initial"] = 5


def ids_out_of_order(doc):
    doc["nodes"].reverse()


def ids_with_gap(doc):
    doc["nodes"][1]["id"] = 2
    doc["edges"] = []


class TestMalformedDocuments:
    def test_well_formed_document_loads(self):
        space = StateSpace.from_doc(two_state_doc())
        assert space.succ == [[(frozenset({"a"}), 1)],
                              [(frozenset({"b"}), 0)]]
        assert space.deadlocks() == []

    @pytest.mark.parametrize("corrupt", [
        dangling_target, dangling_source, repeated_node, unknown_initial,
        ids_out_of_order, ids_with_gap])
    def test_rejected(self, corrupt):
        doc = two_state_doc()
        corrupt(doc)
        with pytest.raises(SerializationError):
            StateSpace.from_doc(doc)
        with pytest.raises(SerializationError):
            StateSpace.from_json(json.dumps(doc))


#: ``to_json()`` of the alternation below, as written since the format
#: was introduced: state 0's edges go {a}->1, {a,b}->1, {b}->0 (grouped
#: by target in first-seen order), not in BFS step order {a}, {b},
#: {a,b}. Store keys hash these bytes.
ALTERNATION_JSON = """\
{
  "format": 1,
  "kind": "statespace",
  "name": "execution-model",
  "initial": 0,
  "truncated": false,
  "events": [
    "a",
    "b",
    "c"
  ],
  "nodes": [
    {
      "id": 0,
      "accepting": true,
      "depth": 0,
      "frontier": false
    },
    {
      "id": 1,
      "accepting": true,
      "depth": 1,
      "frontier": false
    }
  ],
  "edges": [
    {
      "source": 0,
      "target": 1,
      "step": [
        "a"
      ]
    },
    {
      "source": 0,
      "target": 1,
      "step": [
        "a",
        "b"
      ]
    },
    {
      "source": 0,
      "target": 0,
      "step": [
        "b"
      ]
    },
    {
      "source": 1,
      "target": 1,
      "step": [
        "b"
      ]
    },
    {
      "source": 1,
      "target": 0,
      "step": [
        "c"
      ]
    },
    {
      "source": 1,
      "target": 0,
      "step": [
        "b",
        "c"
      ]
    }
  ]
}"""

ALTERNATION_DOT = """\
digraph "execution-model" {
  rankdir=LR;
  node [shape=circle, fontsize=10];
  0 [penwidth=2];
  1;
  0 -> 1 [label="a"];
  0 -> 1 [label="a, b"];
  0 -> 0 [label="b"];
  1 -> 1 [label="b"];
  1 -> 0 [label="c"];
  1 -> 0 [label="b, c"];
}
"""


class TestArtifactEdgeOrder:
    def model(self):
        return ExecutionModel(["a", "b", "c"], [AlternatesRuntime("a", "c")])

    def test_model_separates_step_order_from_artifact_order(self):
        assert self.model().acceptable_steps() == [
            frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})]

    def test_to_json_bytes(self):
        assert explore(self.model()).to_json() == ALTERNATION_JSON

    def test_dot_of_reloaded_space(self):
        reloaded = StateSpace.from_json(ALTERNATION_JSON)
        assert statespace_to_dot(reloaded) == ALTERNATION_DOT
        assert reloaded.to_json() == ALTERNATION_JSON

    def test_reload_regroups_edges_listed_in_step_order(self):
        doc = json.loads(ALTERNATION_JSON)
        edges = doc["edges"]
        edges[1], edges[2] = edges[2], edges[1]  # {a}, {b}, {a,b}
        assert StateSpace.from_doc(doc).to_json() == ALTERNATION_JSON


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
