"""Integration tests: the SDF MoCC reproduces SDF semantics (paper §III).

These are the test-suite versions of experiments E3 and E5: the woven
execution model's behaviour is cross-validated against the token-level
baseline simulator and against the repetition vector.
"""

import pytest

from repro.engine import AsapPolicy, RandomPolicy, explore, simulate_model
from repro.moccml.validate import validate_library
from repro.sdf import (
    SdfBuilder,
    TokenSimulator,
    repetition_vector,
    sdf_library,
    weave_sdf,
)


def two_agent_model(push=1, pop=1, capacity=2, delay=0, cycles=(0, 0),
                    variant="default"):
    builder = SdfBuilder("duo")
    builder.agent("prod", cycles=cycles[0])
    builder.agent("cons", cycles=cycles[1])
    builder.connect("prod", "cons", push=push, pop=pop, capacity=capacity,
                    delay=delay, name="buf")
    model, app = builder.build()
    result = weave_sdf(model, place_variant=variant)
    return model, app, result


class TestLibrary:
    @pytest.mark.parametrize("variant", ["default", "strict", "multiport"])
    def test_library_valid(self, variant):
        library = sdf_library(variant)
        assert validate_library(library) == []

    def test_multiport_has_three_transitions(self):
        library = sdf_library("multiport")
        definition = library.definition_for("PlaceConstraint")
        assert len(definition.transitions) == 3


class TestN0Collapse:
    """Paper: with N = 0, read, start, stop and write are simultaneous."""

    def test_firing_is_one_simultaneous_step(self):
        _model, _app, result = two_agent_model()
        engine_model = result.execution_model
        steps = engine_model.acceptable_steps()
        # the only acceptable non-empty step fires prod atomically:
        # start+stop+write+read(of nothing)... cons cannot fire (no data)
        assert len(steps) == 1
        only = steps[0]
        assert only == frozenset(
            {"prod.start", "prod.stop", "buf.out.write"})

    def test_consumer_fires_after_producer(self):
        _model, _app, result = two_agent_model()
        engine_model = result.execution_model
        engine_model.advance(engine_model.acceptable_steps()[0])
        steps = engine_model.acceptable_steps()
        fired_events = set().union(*steps)
        assert "cons.start" in fired_events
        assert "buf.in.read" in fired_events


class TestNCyclesExecution:
    def test_execution_spans_cycles_steps(self):
        _model, _app, result = two_agent_model(cycles=(2, 0), capacity=2)
        engine_model = result.execution_model
        simulation = simulate_model(engine_model, AsapPolicy(), 3)
        trace = simulation.trace
        # step 0: prod.start (with read of nothing); steps 1..2: exec,
        # the 2nd exec coincides with stop+write
        assert "prod.start" in trace[0]
        assert "prod.stop" not in trace[0]
        assert "prod.isExecuting" in trace[1]
        assert "prod.stop" in trace[2]
        assert "buf.out.write" in trace[2]

    def test_exec_never_outside_start_stop(self):
        _model, _app, result = two_agent_model(cycles=(3, 0), capacity=4)
        engine_model = result.execution_model
        simulation = simulate_model(engine_model, RandomPolicy(seed=3), 40)
        running = False
        for step in simulation.trace:
            if "prod.isExecuting" in step:
                assert running or "prod.start" not in step
                assert running  # exec strictly after start in our reading
            if "prod.start" in step:
                running = True
            if "prod.stop" in step:
                running = False


class TestPlaceSafety:
    @pytest.mark.parametrize("variant", ["default", "multiport"])
    @pytest.mark.parametrize("push,pop,capacity,delay", [
        (1, 1, 1, 0), (1, 1, 3, 1), (2, 1, 4, 0), (1, 3, 3, 0), (2, 3, 6, 1),
    ])
    def test_token_count_always_within_bounds(self, push, pop, capacity,
                                              delay, variant):
        _model, _app, result = two_agent_model(
            push=push, pop=pop, capacity=capacity, delay=delay,
            variant=variant)
        engine_model = result.execution_model
        simulation = simulate_model(engine_model, RandomPolicy(seed=11), 30)
        assert simulation.steps_run > 0
        place_rt = next(c for c in engine_model.constraints
                        if "PlaceLimitation" in c.label)
        size = place_rt.variables["size"]
        assert 0 <= size <= capacity

    def test_full_buffer_blocks_writer(self):
        _model, _app, result = two_agent_model(capacity=1)
        engine_model = result.execution_model
        engine_model.advance(engine_model.acceptable_steps()[0])
        # buffer full: prod cannot fire again until cons reads
        for step in engine_model.acceptable_steps():
            assert "buf.out.write" not in step or "buf.in.read" in step


class TestCrossValidationWithBaseline:
    """Every engine step must be a firing set the token simulator accepts."""

    @pytest.mark.parametrize("variant", ["default", "multiport"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_by_step_agreement(self, variant, seed):
        builder = SdfBuilder("tri")
        builder.agent("src")
        builder.agent("mid")
        builder.agent("snk")
        builder.connect("src", "mid", push=2, pop=1, capacity=4, name="p0")
        builder.connect("mid", "snk", push=1, pop=2, capacity=4, name="p1")
        model, app = builder.build()
        result = weave_sdf(model, place_variant=variant)
        engine_model = result.execution_model
        simulation = simulate_model(engine_model, RandomPolicy(seed=seed), 25)

        tokens = TokenSimulator(app, multiport=(variant == "multiport"))
        for step in simulation.trace:
            fired = frozenset(
                name.split(".")[0] for name in step if name.endswith(".start"))
            if fired:
                tokens.fire_set(fired)  # raises if not a legal firing set
        for place_info in tokens.places:
            assert 0 <= tokens.tokens[place_info.name] \
                <= place_info.capacity

    def test_firing_counts_follow_repetition_vector(self):
        builder = SdfBuilder("multirate")
        builder.agent("a")
        builder.agent("b")
        builder.agent("c")
        builder.connect("a", "b", push=2, pop=1, capacity=4)
        builder.connect("b", "c", push=1, pop=2, capacity=4)
        model, app = builder.build()
        repetition = repetition_vector(app)  # a:1, b:2, c:1
        result = weave_sdf(model)
        simulation = simulate_model(result.execution_model, AsapPolicy(), 60)
        counts = {name: simulation.trace.count(f"{name}.start")
                  for name in repetition}
        # over a long ASAP run the firing ratios approach the repetition
        # vector (up to boundary effects of one iteration)
        iterations = min(counts[name] // repetition[name]
                         for name in repetition)
        assert iterations >= 5
        for name in repetition:
            assert abs(counts[name] - iterations * repetition[name]) \
                <= 2 * repetition[name]


class TestVariants:
    def test_multiport_allows_simultaneous_read_write(self):
        _model, _app, result = two_agent_model(capacity=1,
                                               variant="multiport")
        engine_model = result.execution_model
        engine_model.advance(max(engine_model.acceptable_steps(), key=len))
        # buffer full (capacity 1): with multiport, prod and cons can now
        # fire together (write and read the same place in one step)
        steps = engine_model.acceptable_steps()
        assert any("buf.out.write" in step and "buf.in.read" in step
                   for step in steps)

    def test_default_forbids_simultaneous_read_write(self):
        _model, _app, result = two_agent_model(capacity=2)
        engine_model = result.execution_model
        engine_model.advance(max(engine_model.acceptable_steps(), key=len))
        for step in engine_model.acceptable_steps():
            assert not ("buf.out.write" in step and "buf.in.read" in step)

    def test_strict_variant_wastes_capacity(self):
        # Fig. 3 verbatim: 'size < itsCapacity - pushRate' wastes one
        # write slot compared to the prose reading (E1 shows this)
        _model, _app, default_result = two_agent_model(capacity=2)
        _model2, _app2, strict_result = two_agent_model(capacity=2,
                                                        variant="strict")
        default_space = explore(default_result.execution_model)
        strict_space = explore(strict_result.execution_model)
        assert strict_space.n_states < default_space.n_states


class TestExhaustiveExploration:
    def test_statespace_of_homogeneous_pipeline(self):
        _model, _app, result = two_agent_model(capacity=2)
        space = explore(result.execution_model)
        assert space.is_deadlock_free()
        assert not space.truncated
        # the buffer level cycles through 0,1,2 with prod/cons firings
        assert space.n_states >= 3

    def test_undersized_place_deadlocks(self):
        # capacity smaller than push: writer can never fire
        builder = SdfBuilder("stuck")
        builder.agent("p")
        builder.agent("c")
        builder.connect("p", "c", push=3, pop=1, capacity=2)
        model, _app = builder.build()
        result = weave_sdf(model)
        space = explore(result.execution_model)
        assert not space.is_deadlock_free()
