"""Tests for state-space metrics, analyses, latency and projections."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AsapPolicy,
    ExecutionModel,
    StateSpace,
    Trace,
    explore,
    max_cycle_mean_throughput,
    parallelism_profile,
    simulate_model,
)
from repro.engine.analysis import (
    check_mutual_exclusion,
    occurrence_latency,
    simulated_throughput,
)
from repro.engine.explorer import _maximal_steps
from repro.errors import EngineError
from repro.sdf import SdfBuilder, weave_sdf


def pipeline_model(length=3, capacity=2):
    builder = SdfBuilder("pipe")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index+1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def pipeline_space(maximal_only=False, length=3, capacity=2):
    return explore(pipeline_model(length, capacity),
                   maximal_only=maximal_only, max_states=50_000)


class TestStateSpaceMetrics:
    def test_summary_keys(self):
        space = pipeline_space()
        summary = space.summary()
        assert set(summary) == {
            "states", "transitions", "distinct_steps", "deadlocks",
            "max_parallelism", "mean_branching", "dead_events", "truncated"}

    def test_mean_branching(self):
        space = pipeline_space()
        assert space.mean_branching() == pytest.approx(
            space.n_transitions / space.n_states)

    def test_recurrent_components_exist_for_live_system(self):
        space = pipeline_space()
        components = space.recurrent_components()
        assert components
        assert all(len(c) >= 1 for c in components)

    def test_self_loop_counts_as_recurrent(self):
        model = ExecutionModel(["a"])
        space = explore(model)
        # single state with {a} self-loop
        assert space.n_states == 1
        assert space.recurrent_components() == [{0}]

    def test_event_liveness(self):
        space = pipeline_space()
        assert "a0.start" in space.live_events()
        assert "a0.isExecuting" in space.dead_events()  # cycles = 0

    def test_parallelism_profile(self):
        space = pipeline_space()
        profile = parallelism_profile(space)
        assert profile["max"] >= 3.0
        assert 0 < profile["mean"] <= profile["max"]
        assert profile["transitions"] == float(space.n_transitions)


def asap_trace(model, steps=6):
    return simulate_model(model, AsapPolicy(), steps).trace


class TestUnknownEvents:
    """A misspelt event is refused, as the CTL atoms refuse it, instead
    of answering as if the event never occurred."""

    @pytest.mark.parametrize("analysis", [
        lambda model: check_mutual_exclusion(explore(model),
                                             ["a0.start", "a1.strat"]),
        lambda model: max_cycle_mean_throughput(explore(model), "a1.strat"),
        lambda model: simulated_throughput(model, ["a1.strat"]),
        lambda model: occurrence_latency(asap_trace(model), "a0.start",
                                         "a1.strat"),
        lambda model: occurrence_latency(asap_trace(model), "a1.strat",
                                         "a0.start"),
        lambda model: asap_trace(model).throughput("a1.strat"),
        lambda model: Trace(model.events).throughput("a1.strat"),
    ], ids=["mutual-exclusion", "max-cycle-mean", "simulated-throughput",
            "latency-effect", "latency-cause", "trace-throughput",
            "empty-trace-throughput"])
    def test_misspelt_event_raises(self, analysis):
        with pytest.raises(EngineError,
                           match=r"unknown event 'a1\.strat' in .*known: "):
            analysis(pipeline_model(length=2))


def hand_space(n_states, edges):
    """A state space over *n_states* states with the given
    ``(source, step, target)`` edges."""
    succ = [[] for _ in range(n_states)]
    for source, step, target in edges:
        succ[source].append((frozenset(step), target))
    return StateSpace(succ=succ, accepting=[True] * n_states,
                      depth=[0] * n_states, initial=0, events=["x", "y"])


def mutual_reachability_components(space):
    """The oracle: states grouped by mutual reachability, keeping the
    groups that contain a cycle (several states, or a self-loop)."""
    reach = []
    for start in range(space.n_states):
        seen, stack = set(), [start]
        while stack:
            for _step, target in space.succ[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        reach.append(seen)  # states reachable in one or more steps
    components = set()
    for state in range(space.n_states):
        members = frozenset({state} | {
            other for other in reach[state] if state in reach[other]})
        if len(members) > 1 or state in reach[state]:
            components.add(members)
    return components


@st.composite
def multigraphs(draw):
    n_states = draw(st.integers(1, 12))
    state = st.integers(0, n_states - 1)
    step = st.sampled_from([(), ("x",), ("y",), ("x", "y")])
    edges = draw(st.lists(st.tuples(state, step, state), max_size=30))
    return hand_space(n_states, edges)


class TestGraphAlgorithms:
    @settings(max_examples=150, deadline=None)
    @given(space=multigraphs())
    def test_recurrent_components_match_mutual_reachability(self, space):
        found = space.recurrent_components()
        assert len({frozenset(c) for c in found}) == len(found)
        assert {frozenset(c) for c in found} == \
            mutual_reachability_components(space)

    def test_isolated_states_and_self_loops(self):
        space = hand_space(4, [(0, "x", 1), (1, "", 0), (2, "y", 2),
                               (2, "x", 2), (3, "x", 0)])
        assert sorted(map(sorted, space.recurrent_components())) == \
            [[0, 1], [2]]

    def test_long_ring_is_one_component(self):
        # deeper than the recursion limit: Tarjan must not recurse
        n_states = 20_000
        space = hand_space(n_states, [(state, "x", (state + 1) % n_states)
                                      for state in range(n_states)])
        components = space.recurrent_components()
        assert len(components) == 1
        assert len(components[0]) == n_states

    def test_max_cycle_mean_picks_the_best_cycle(self):
        # cycle 0 -> 1 -> 0 takes x once in two steps (the parallel
        # {} edge must not lower it); cycle 2 -> 3 -> 4 -> 2 takes x
        # twice in three steps; the 0 -> 2 edge joins no cycle
        slow = [(0, "x", 1), (0, "", 1), (1, "", 0), (0, "y", 2)]
        fast = [(2, "x", 3), (3, "x", 4), (4, "y", 2)]
        assert max_cycle_mean_throughput(hand_space(5, slow), "x") == \
            pytest.approx(1 / 2)
        both = hand_space(5, slow + fast)
        assert max_cycle_mean_throughput(both, "x") == pytest.approx(2 / 3)
        assert max_cycle_mean_throughput(both, "y") == pytest.approx(1 / 3)

    def test_max_cycle_mean_without_cycles(self):
        space = hand_space(3, [(0, "x", 1), (1, "x", 2)])
        assert space.recurrent_components() == []
        assert max_cycle_mean_throughput(space, "x") == 0.0


class TestMaximalOnlyExploration:
    def test_reduces_transitions(self):
        full = pipeline_space(maximal_only=False)
        reduced = pipeline_space(maximal_only=True)
        assert reduced.n_transitions < full.n_transitions
        assert reduced.n_states <= full.n_states

    def test_preserves_peak_parallelism(self):
        full = pipeline_space(maximal_only=False)
        reduced = pipeline_space(maximal_only=True)
        assert reduced.max_parallelism() == full.max_parallelism()

    def test_maximal_steps_helper(self):
        steps = [frozenset(), frozenset({"a"}), frozenset({"b"}),
                 frozenset({"a", "b"})]
        assert _maximal_steps(steps) == [frozenset({"a", "b"})]
        incomparable = [frozenset({"a"}), frozenset({"b"})]
        assert _maximal_steps(incomparable) == incomparable


class TestLatency:
    def test_pipeline_latency(self):
        builder = SdfBuilder("duo")
        builder.agent("src")
        builder.agent("dst")
        builder.connect("src", "dst", capacity=2)
        model, _app = builder.build()
        result = simulate_model(weave_sdf(model).execution_model,
                                AsapPolicy(), 10)
        latencies = occurrence_latency(result.trace, "src.start",
                                       "dst.start")
        assert latencies
        assert all(value >= 1 for value in latencies)  # rw exclusion

    def test_latency_pairs_in_order(self):
        trace = Trace(["c", "e"])
        for step in ({"c"}, set(), {"e", "c"}, {"e"}):
            trace.append(frozenset(step))
        assert occurrence_latency(trace, "c", "e") == [2, 1]

    def test_unmatched_causes_ignored(self):
        trace = Trace(["c", "e"])
        trace.append(frozenset({"c"}))
        trace.append(frozenset({"c"}))
        trace.append(frozenset({"e"}))
        assert occurrence_latency(trace, "c", "e") == [2]


class TestTraceProjection:
    def test_project_restricts_events(self):
        trace = Trace(["a", "b", "c"])
        trace.append(frozenset({"a", "b"}))
        trace.append(frozenset({"c"}))
        projected = trace.project(["a", "c"])
        assert projected.events == ["a", "c"]
        assert list(projected) == [frozenset({"a"}), frozenset({"c"})]

    def test_project_preserves_length(self):
        trace = Trace(["a", "b"])
        trace.append(frozenset({"b"}))
        projected = trace.project(["a"])
        assert len(projected) == 1
        assert projected[0] == frozenset()

    def test_ascii_window(self):
        trace = Trace(["x"])
        for index in range(10):
            trace.append(frozenset({"x"} if index % 2 == 0 else set()))
        art = trace.to_ascii(start=4, width=4)
        lines = art.splitlines()
        assert lines[1].endswith("X.X.")

    def test_vcd_many_events(self):
        # exercise multi-character VCD identifiers (> 94 events)
        events = [f"e{i}" for i in range(100)]
        trace = Trace(events)
        trace.append(frozenset({"e99"}))
        vcd = trace.to_vcd()
        assert "$var wire 1" in vcd
        # identifiers must be unique
        ids = [line.split()[3]
               for line in vcd.splitlines() if line.startswith("$var")]
        assert len(set(ids)) == 100


class TestVariableBoundsMore:
    def test_bounds_with_deployment_comm_delay(self):
        from repro.deployment import CommDelayRuntime
        model = ExecutionModel(
            ["w", "r"],
            [CommDelayRuntime("w", "r", push=1, pop=1, latency=1)])
        space = explore(model, max_states=50)
        # CommDelay is not an AutomatonRuntime: bounds just stay empty
        from repro.engine import variable_bounds
        assert variable_bounds(model, space) == {}
