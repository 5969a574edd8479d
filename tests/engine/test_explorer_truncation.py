"""Truncation semantics must be identical across exploration strategies:
``max_states``/``max_depth`` budgets, the ``truncated`` flag, strict
mode, and the frontier nodes recorded in ``to_json``."""

import json

import pytest

from repro.engine import explore
from repro.errors import EngineError, ExplorationLimitError
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


class TestTruncationParity:
    @pytest.mark.parametrize("max_states", [1, 3, 5, 10, 27, 100])
    def test_max_states_identical(self, max_states):
        model = chain_model()
        explicit = explore(model, max_states=max_states)
        symbolic = explore(model, max_states=max_states,
                           strategy="symbolic")
        assert explicit.to_json() == symbolic.to_json()
        assert explicit.truncated == symbolic.truncated == \
            (max_states < 27)
        assert frontier_ids(explicit) == frontier_ids(symbolic)

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 5, 50])
    def test_max_depth_identical(self, max_depth):
        model = chain_model()
        explicit = explore(model, max_depth=max_depth)
        symbolic = explore(model, max_depth=max_depth,
                           strategy="symbolic")
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
        symbolic = explore(model, strategy="symbolic", **options)
        assert explicit.to_json() == symbolic.to_json()

    @pytest.mark.parametrize("strategy", ["explicit", "symbolic"])
    def test_strict_raises(self, strategy):
        with pytest.raises(ExplorationLimitError, match="exceeded"):
            explore(chain_model(), max_states=3, strict=True,
                    strategy=strategy)

    def test_frontier_survives_serialization(self):
        model = chain_model()
        for strategy in ("explicit", "symbolic"):
            space = explore(model, max_states=5, strategy=strategy)
            doc = json.loads(space.to_json())
            assert doc["truncated"]
            assert any(node["frontier"] for node in doc["nodes"])

    def test_auto_strategy_matches(self):
        model = chain_model()
        assert explore(model, max_states=6, strategy="auto").to_json() \
            == explore(model, max_states=6).to_json()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(EngineError, match="unknown exploration"):
            explore(chain_model(2), strategy="quantum")
