"""E9 — supporting study: engine scaling and step enumeration.

Not a figure of the paper, but the scaling data DESIGN.md calls out:
how exploration cost grows with model size, and what enumerating a
per-step formula's models on the BDD costs (checked against brute-force
evaluation, the BDD's reference).
"""

import pytest

from repro.boolalg import Bdd, iter_models
from repro.engine import AsapPolicy, explore, simulate_model
from repro.sdf import SdfBuilder, weave_sdf


def chain(length: int, capacity: int = 1):
    builder = SdfBuilder(f"chain{length}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index+1}", capacity=capacity)
    return builder.build()


class TestScaling:
    def test_statespace_grows_with_chain_length(self):
        sizes = []
        for length in (2, 3, 4):
            model, _app = chain(length)
            space = explore(weave_sdf(model).execution_model,
                            max_states=50000)
            sizes.append(space.n_states)
        print(f"\nchain length 2,3,4 -> states {sizes}")
        assert sizes[0] < sizes[1] < sizes[2]

    def test_bdd_agrees_with_brute_force_on_step_formulas(self):
        model, _app = chain(3, capacity=2)
        engine_model = weave_sdf(model).execution_model
        formula = engine_model.step_formula()
        events = engine_model.events
        bdd = Bdd(order=events)
        node = bdd.from_expr(formula)
        bdd_models = {frozenset(k for k, v in m.items() if v)
                      for m in bdd.iter_models(node, events)}
        brute_models = {frozenset(k for k, v in m.items() if v)
                        for m in iter_models(formula, events)}
        assert bdd_models == brute_models


@pytest.mark.benchmark(group="e9-scaling")
@pytest.mark.parametrize("length", [2, 4, 6])
def bench_exploration_scaling(benchmark, length):
    model, _app = chain(length)

    def explore_once():
        return explore(weave_sdf(model).execution_model,
                       max_states=100000)

    space = benchmark.pedantic(explore_once, rounds=1, iterations=1)
    assert not space.truncated


@pytest.mark.benchmark(group="e9-scaling")
@pytest.mark.parametrize("length", [4, 8, 12])
def bench_simulation_scaling(benchmark, length):
    model, _app = chain(length, capacity=2)
    woven = weave_sdf(model)

    def simulate():
        return simulate_model(woven.execution_model.clone(),
                              AsapPolicy(), 30)

    simulation = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert simulation.steps_run == 30


class TestMaximalOnlyAblation:
    def test_reduction_preserves_peak_parallelism(self):
        model, _app = chain(4, capacity=2)
        woven = weave_sdf(model)
        full = explore(woven.execution_model, max_states=50000)
        reduced = explore(woven.execution_model, max_states=50000,
                          maximal_only=True)
        print(f"\nmaximal-only ablation: full {full.n_states}/"
              f"{full.n_transitions}, reduced {reduced.n_states}/"
              f"{reduced.n_transitions}")
        assert reduced.n_transitions < full.n_transitions
        assert reduced.max_parallelism() == full.max_parallelism()


@pytest.mark.benchmark(group="e9-scaling")
@pytest.mark.parametrize("maximal_only", [False, True],
                         ids=["full", "maximal-only"])
def bench_exploration_reduction(benchmark, maximal_only):
    """Cost of full vs. maximal-step-only exploration."""
    model, _app = chain(5, capacity=2)

    def explore_once():
        return explore(weave_sdf(model).execution_model,
                       max_states=100000, maximal_only=maximal_only)

    space = benchmark.pedantic(explore_once, rounds=1, iterations=1)
    assert not space.truncated


@pytest.mark.benchmark(group="e9-solvers")
def bench_bdd_enumeration(benchmark):
    model, _app = chain(4, capacity=2)
    engine_model = weave_sdf(model).execution_model
    formula = engine_model.step_formula()
    events = engine_model.events

    def enumerate_bdd():
        bdd = Bdd(order=events)
        node = bdd.from_expr(formula)
        return list(bdd.iter_models(node, events))

    models = benchmark(enumerate_bdd)
    assert models
