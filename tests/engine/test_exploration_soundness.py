"""Soundness/completeness cross-checks of the exhaustive explorer.

The explorer is the load-bearing analysis of the reproduction, so it is
checked against independent machinery:

* *soundness* — every edge of the state space corresponds to a step the
  source configuration actually accepts (recomputed on a replayed
  model);
* *completeness* — every simulated trace (any policy, any seed) stays
  inside the explored graph;
* *determinism* — exploring twice yields the same graph.
"""

import networkx as nx
import pytest

from repro.engine import (
    AsapPolicy,
    MinimalPolicy,
    RandomPolicy,
    explore,
    simulate_model,
)
from repro.sdf import SdfBuilder, weave_sdf


def small_model():
    builder = SdfBuilder("tri")
    builder.agent("x")
    builder.agent("y")
    builder.agent("z")
    builder.connect("x", "y", push=2, pop=1, capacity=3)
    builder.connect("y", "z", push=1, pop=1, capacity=2)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def replay_to(space, model, target):
    """Drive a clone of *model* along a shortest path to *target*."""
    path = nx.shortest_path(space.graph, space.initial, target)
    clone = model.clone()
    for previous, current in zip(path, path[1:]):
        step = next(data["step"] for _u, v, data
                    in space.graph.out_edges(previous, data=True)
                    if v == current)
        clone.advance(step)
    return clone


class TestSoundness:
    def test_every_edge_is_acceptable_at_its_source(self):
        model = small_model()
        space = explore(model, max_states=5000)
        assert not space.truncated
        for node in space.graph.nodes:
            replayed = replay_to(space, model, node)
            expected = set()
            for _u, _v, data in space.graph.out_edges(node, data=True):
                expected.add(data["step"])
            actual = set(replayed.acceptable_steps())
            assert expected == actual, f"node {node} disagrees"

    def test_configuration_keys_match_replay(self):
        model = small_model()
        space = explore(model, max_states=5000)
        for node in list(space.graph.nodes)[:10]:
            replayed = replay_to(space, model, node)
            assert replayed.configuration() == \
                space.graph.nodes[node]["key"]


class TestCompleteness:
    @pytest.mark.parametrize("policy", [
        AsapPolicy(), MinimalPolicy(), RandomPolicy(seed=4),
        RandomPolicy(seed=99)])
    def test_simulated_traces_stay_in_the_space(self, policy):
        model = small_model()
        space = explore(model, max_states=5000)
        simulation = simulate_model(model.clone(), policy, 25)
        node = space.initial
        for step in simulation.trace:
            successors = [
                v for _u, v, data in space.graph.out_edges(node, data=True)
                if data["step"] == step]
            assert successors, f"step {sorted(step)} missing from node {node}"
            node = successors[0]


class TestDeterminism:
    def test_exploring_twice_is_identical(self):
        first = explore(small_model(), max_states=5000)
        second = explore(small_model(), max_states=5000)
        assert first.n_states == second.n_states
        assert first.n_transitions == second.n_transitions
        first_edges = sorted(
            (u, v, tuple(sorted(data["step"])))
            for u, v, data in first.graph.edges(data=True))
        second_edges = sorted(
            (u, v, tuple(sorted(data["step"])))
            for u, v, data in second.graph.edges(data=True))
        assert first_edges == second_edges
