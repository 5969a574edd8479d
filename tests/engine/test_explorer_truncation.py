"""Truncation semantics must be identical between exploration and the
concretization of a compiled symbolic system: ``max_states``/
``max_depth`` budgets, the ``truncated`` flag, and the frontier nodes
recorded in ``to_json``."""

import json

import pytest

from repro.engine import explore
from repro.sdf import SdfBuilder, weave_sdf


def chain_model(length=4, capacity=2):
    builder = SdfBuilder(f"chain{length}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def frontier_ids(space):
    return sorted(space.frontier)


def compiled(model, **budgets):
    """The compiled system's space under the same budgets."""
    return model.kernel.transition_system(model).to_statespace(**budgets)


class TestTruncationParity:
    @pytest.mark.parametrize("max_states", [1, 3, 5, 10, 27, 100])
    def test_max_states_identical(self, max_states):
        model = chain_model()
        explicit = explore(model, max_states=max_states)
        symbolic = compiled(model, max_states=max_states)
        assert explicit.to_json() == symbolic.to_json()
        assert explicit.truncated == symbolic.truncated == \
            (max_states < 27)
        assert frontier_ids(explicit) == frontier_ids(symbolic)

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 5, 50])
    def test_max_depth_identical(self, max_depth):
        model = chain_model()
        explicit = explore(model, max_depth=max_depth)
        symbolic = compiled(model, max_depth=max_depth)
        assert explicit.to_json() == symbolic.to_json()
        assert frontier_ids(explicit) == frontier_ids(symbolic)

    @pytest.mark.parametrize("options", [
        {"include_empty": True, "max_states": 7},
        {"maximal_only": True, "max_states": 4},
        {"include_empty": True, "max_depth": 2},
    ])
    def test_option_combinations(self, options):
        model = chain_model()
        explicit = explore(model, **options)
        symbolic = compiled(model, **options)
        assert explicit.to_json() == symbolic.to_json()

    def test_frontier_survives_serialization(self):
        model = chain_model()
        for space in (explore(model, max_states=5),
                      compiled(model, max_states=5)):
            doc = json.loads(space.to_json())
            assert doc["truncated"]
            assert any(node["frontier"] for node in doc["nodes"])

    def test_auto_strategy_matches(self):
        # the space the retired explore(strategy="auto") built for this
        # encodable model past the event threshold: the compiled one
        model = chain_model()
        assert compiled(model, max_states=6).to_json() \
            == explore(model, max_states=6).to_json()
