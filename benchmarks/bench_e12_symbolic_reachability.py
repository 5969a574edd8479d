"""E12 — symbolic fixpoint reachability vs explicit BFS.

The headline claim of the symbolic engine: fixpoint image iteration
reaches exploration configs that explicit BFS cannot finish within its
budget. ``chain12c2`` has 3^11 = 177,147 reachable states — explicit
exploration truncates at a 2,000-state budget after seconds of work,
while the fixpoint computes the *exact* reachable set, verifies
deadlock freedom and the buffer bounds, in well under a second. The
benchmark groups pin the scaling data (chain and mesh topologies) and
the comparison of exploration with the compiled system's
concretization on a graph both can materialize.
"""

import gc

import pytest

from repro import obs
from repro.engine import Verdict, check, explore, symbolic_variable_bounds
from repro.engine.equivalence import assert_equivalent
from repro.engine.symbolic import symbolic_reachable
from repro.sdf import SdfBuilder, weave_sdf

#: the explicit-BFS state budget the headline test works against; the
#: symbolic fixpoint must complete configs whose exact state count is
#: far beyond it.
EXPLICIT_BUDGET = 2_000


def chain(length: int, capacity: int = 1):
    builder = SdfBuilder(f"chain{length}c{capacity}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def mesh(rows: int, cols: int, capacity: int = 1):
    builder = SdfBuilder(f"mesh{rows}x{cols}c{capacity}")
    for row in range(rows):
        for col in range(cols):
            builder.agent(f"n{row}_{col}")
    for row in range(rows):
        for col in range(cols):
            if col + 1 < cols:
                builder.connect(f"n{row}_{col}", f"n{row}_{col + 1}",
                                capacity=capacity)
            if row + 1 < rows:
                builder.connect(f"n{row}_{col}", f"n{row + 1}_{col}",
                                capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


class TestBeyondExplicitReach:
    def test_fixpoint_completes_where_explicit_truncates(self):
        """The acceptance pin: one size class beyond explicit BFS."""
        model = chain(12, capacity=2)
        explicit = explore(model, max_states=EXPLICIT_BUDGET)
        assert explicit.truncated  # cannot finish within the budget
        reachable = symbolic_reachable(model)
        assert reachable.count() == 3 ** 11  # exact, not truncated
        assert reachable.count() > 80 * EXPLICIT_BUDGET
        assert check(model, "AG !deadlock",
                     strategy="symbolic").verdict is Verdict.HOLDS
        print(f"\nchain12c2: explicit truncated at {EXPLICIT_BUDGET}, "
              f"fixpoint exact {reachable.count()} states "
              f"(depth {reachable.depth})")

    def test_buffer_bounds_verified_on_the_giant_space(self):
        model = chain(12, capacity=2)
        bounds = symbolic_variable_bounds(model)
        sizes = {name: value for name, value in bounds.items()
                 if name.endswith(".size")}
        assert len(sizes) == 11
        assert all(value == (0, 2) for value in sizes.values())

    def test_mesh_equivalence_and_reach(self):
        small = mesh(3, 3)
        assert_equivalent(small, max_states=20_000)
        large = mesh(3, 4, capacity=2)
        reachable = symbolic_reachable(large)
        assert reachable.count() > 8 * EXPLICIT_BUDGET
        print(f"\nmesh3x4c2: fixpoint exact {reachable.count()} states")


@pytest.mark.benchmark(group="e12-fixpoint")
@pytest.mark.parametrize("length", [8, 10, 12])
def bench_fixpoint_chain_scaling(benchmark, length):
    """Fixpoint cost growth along the chain family (compile + iterate)."""
    model = chain(length, capacity=2)

    def fixpoint():
        model.clear_caches()  # measure compile + fixpoint, not the cache
        return symbolic_reachable(model)

    reachable = benchmark.pedantic(fixpoint, rounds=1, iterations=1)
    assert reachable.count() == 3 ** (length - 1)
    benchmark.extra_info["engine"] = obs.engine_snapshot(reachable)


@pytest.mark.benchmark(group="e12-fixpoint")
def bench_fixpoint_mesh(benchmark):
    model = mesh(3, 4, capacity=2)

    def fixpoint():
        model.clear_caches()
        return symbolic_reachable(model)

    reachable = benchmark.pedantic(fixpoint, rounds=1, iterations=1)
    benchmark.extra_info["engine"] = obs.engine_snapshot(reachable)


@pytest.mark.benchmark(group="e12-strategies")
@pytest.mark.parametrize("strategy", ["explicit", "symbolic"])
def bench_explore_strategy(benchmark, strategy):
    """Same graph, built by exploration (``explicit``) or by compiling
    the symbolic system and concretizing it (``symbolic``)."""
    model = chain(6, capacity=2)

    def explore_once():
        model.clear_caches()
        if strategy == "explicit":
            return explore(model, max_states=100_000)
        system = model.kernel.transition_system(model)
        return system.to_statespace(max_states=100_000)

    def collect_garbage():
        # the single timed round must not absorb a full collection of
        # the garbage the earlier benchmarks in this file left behind
        gc.collect()

    space = benchmark.pedantic(explore_once, setup=collect_garbage,
                               rounds=1, iterations=1)
    assert space.n_states == 3 ** 5
    assert not space.truncated
