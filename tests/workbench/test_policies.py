"""The policy registry: names, specs, custom registration."""

import pytest

from repro.engine import (
    AsapPolicy,
    MinimalPolicy,
    PriorityPolicy,
    RandomPolicy,
    ReplayPolicy,
)
from repro.workbench import (
    PolicyError,
    make_policy,
    policy_names,
    register_policy,
)
from repro.workbench.policies import policy_doc


class TestRegistry:
    def test_builtin_names(self):
        names = policy_names()
        for expected in ("asap", "minimal", "random", "priority",
                         "replay"):
            assert expected in names

    def test_make_by_name(self):
        assert isinstance(make_policy("asap"), AsapPolicy)
        assert isinstance(make_policy("minimal"), MinimalPolicy)

    def test_make_with_kwargs(self):
        policy = make_policy({"name": "random", "seed": 9})
        assert isinstance(policy, RandomPolicy)
        priority = make_policy({"name": "priority",
                                "weights": {"a": 2, "b": 1}})
        assert isinstance(priority, PriorityPolicy)
        assert priority.weights == {"a": 2, "b": 1}

    def test_replay_from_plain_lists(self):
        policy = make_policy({"name": "replay",
                              "steps": [["a"], ["b"], []]})
        assert isinstance(policy, ReplayPolicy)
        assert policy.steps == [frozenset({"a"}), frozenset({"b"}),
                                frozenset()]

    def test_instances_pass_through(self):
        policy = AsapPolicy()
        assert make_policy(policy) is policy

    def test_fresh_per_call(self):
        one = make_policy({"name": "random", "seed": 0})
        two = make_policy({"name": "random", "seed": 0})
        assert one is not two

    def test_unknown_name(self):
        with pytest.raises(PolicyError, match="unknown policy"):
            make_policy("fifo")

    def test_bad_kwargs(self):
        with pytest.raises(PolicyError, match="bad arguments"):
            make_policy({"name": "asap", "bogus": 1})

    @pytest.mark.parametrize("spec, keyword", [
        ({"name": "priority", "weights": {"a": "x"}}, "weights"),
        ({"name": "priority", "weights": {"a": None}}, "weights"),
        ({"name": "priority", "weights": ["a"]}, "weights"),
        ({"name": "asap", "symbolic_threshold": 0}, "symbolic_threshold"),
        ({"name": "asap", "symbolic_threshold": "x"}, "symbolic_threshold"),
        ({"name": "asap", "symbolic_threshold": None},
         "symbolic_threshold"),
        ({"name": "random", "seed": True}, "seed"),
        ({"name": "random", "seed": 1.5}, "seed"),
        ({"name": "replay", "steps": ["ab"]}, "steps"),
        ({"name": "replay", "steps": [[1]]}, "steps"),
    ])
    def test_keyword_types_checked(self, spec, keyword):
        # a wrong JSON type is refused up front, never a TypeError (or
        # a silently reinterpreted step) at run time
        with pytest.raises(PolicyError, match=keyword):
            make_policy(spec)

    def test_mapping_needs_name(self):
        with pytest.raises(PolicyError, match="'name'"):
            make_policy({"seed": 1})

    def test_register_custom(self):
        from repro.workbench import policies as module

        @register_policy("unit-test-first")
        def first_policy():
            class FirstPolicy(AsapPolicy):
                name = "first"

                def choose(self, candidates, step_index):
                    self._require(candidates)
                    return min(candidates,
                               key=lambda step: sorted(step))
            return FirstPolicy()
        try:
            assert "unit-test-first" in policy_names()
            assert make_policy("unit-test-first").name == "first"
        finally:
            module._REGISTRY.pop("unit-test-first", None)


class TestPolicyDoc:
    def test_names_and_mappings_pass(self):
        assert policy_doc("asap") == "asap"
        assert policy_doc({"name": "random", "seed": 2}) == {
            "name": "random", "seed": 2}

    def test_instances_rejected(self):
        with pytest.raises(PolicyError, match="not.*serializable"):
            policy_doc(AsapPolicy())
