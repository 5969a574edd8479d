"""E15 — the clustered transition relation on wrap-around grids.

The topology class that motivates conjunctive partitioning: toruses.
On an open mesh the connection-topology variable order keeps every
coupled constraint pair close. Wrap-around edges destroy that: no
linear order can keep both ends of a ring adjacent, and the one
conjoined relation ``∧ T_i`` explodes. The engine used to offer that
conjunction as a second, "monolithic" layout; its eager conjoin took
over 30s and ~8M BDD nodes at ``torus(5,5)`` and ~9 minutes at
``torus(6,6)``, and it ran compile plus fixpoint 3-4x slower at
``torus(4,4)``. The layout is gone. The symbolic backend never
conjoins the clusters and computes every image by a clustered product
with early quantification.

What stays measured here: the ``torus(6,6)`` infeasibility pin (the
exact fixpoint and deadlock verdict within the checkable budget), an
explicit-vs-symbolic agreement check on the bench family, the
clustered cost growth along ``torus(3,3)``..``torus(4,5)``, and
explicit exploration of ``torus(4,4)`` and ``torus(5,5)``: with 112 and
175 constraints, of which a step names about a tenth, they are the
widest models any bench explores explicitly, so they show whether a
successor costs what its step names or what the model holds.

Each torus edge that wraps around carries one pipeline delay token
(plus one unit of slack capacity), the classic software-pipelining
arrangement that keeps a cyclic SDF graph live.
"""

import time

import pytest

from repro import obs
from repro.engine import Verdict, check, explore
from repro.engine.symbolic import TransitionSystem, symbolic_reachable
from repro.sdf import SdfBuilder, weave_sdf

#: wall-clock budget (seconds) that defines "checkable" for the
#: infeasibility pin — the eagerly conjoined relation blew ~4.5x past
#: it on ``INFEASIBLE_CONFIG`` (the conjoin alone took ~9 minutes); the
#: clustered product stays well inside it.
CHECKABLE_BUDGET_S = 120.0

#: the eager conjoin needed ~9 minutes here (at (5, 5) it already
#: needed >30s and ~8M nodes); the clustered product computes the exact
#: 2772-state fixpoint in ~17s.
INFEASIBLE_CONFIG = (6, 6)

#: reachable states of explicit exploration per torus size
EXPLICIT_STATES = {(4, 4): 140, (5, 5): 630}


def torus(rows: int, cols: int, capacity: int = 1):
    """A rows×cols wrap-around grid of SDF agents, one delay token on
    every wrapping edge so the pipeline can rotate."""
    builder = SdfBuilder(f"torus{rows}x{cols}c{capacity}")
    for row in range(rows):
        for col in range(cols):
            builder.agent(f"n{row}_{col}")
    for row in range(rows):
        for col in range(cols):
            wrap_col = col + 1 == cols
            wrap_row = row + 1 == rows
            builder.connect(f"n{row}_{col}", f"n{row}_{(col + 1) % cols}",
                            capacity=capacity + (1 if wrap_col else 0),
                            delay=1 if wrap_col else 0)
            builder.connect(f"n{row}_{col}", f"n{(row + 1) % rows}_{col}",
                            capacity=capacity + (1 if wrap_row else 0),
                            delay=1 if wrap_row else 0)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


class TestClusteredTorus:
    def test_previously_infeasible_torus_is_checkable(self):
        """A config whose eagerly conjoined relation blew the bench
        budget is checkable: the exact reachable fixpoint and the exact
        deadlock-freedom verdict land in seconds."""
        rows, cols = INFEASIBLE_CONFIG
        model = torus(rows, cols)
        started = time.perf_counter()
        reached = symbolic_reachable(model)
        verdict = check(model, "AG !deadlock", strategy="symbolic").verdict
        elapsed = time.perf_counter() - started
        assert reached.count() == 2772  # exact, not truncated
        assert verdict is Verdict.HOLDS
        assert elapsed < CHECKABLE_BUDGET_S, (
            f"torus{rows}x{cols} fixpoint took {elapsed:.1f}s — beyond "
            f"the {CHECKABLE_BUDGET_S:.0f}s checkable budget")
        print(f"\ntorus{rows}x{cols}: deadlock-free over "
              f"{reached.count()} states in {elapsed:.2f}s")

    def test_small_torus_matches_explicit(self):
        """The symbolic backend denotes the same system as explicit
        exploration on the bench family (the corpus-wide sweep lives in
        tests/engine)."""
        from repro.engine.equivalence import assert_equivalent
        assert_equivalent(torus(3, 3), max_states=5_000)


@pytest.mark.benchmark(group="e15-scaling")
@pytest.mark.parametrize("size", [(3, 3), (4, 4), (4, 5)])
def bench_torus_scaling_partitioned(benchmark, size):
    """Clustered-product cost growth along the torus family."""
    rows, cols = size
    model = torus(rows, cols)

    def fixpoint():
        model.clear_caches()
        system = TransitionSystem(model)
        system.reachable_set()
        return system

    system = benchmark.pedantic(fixpoint, rounds=1, iterations=1)
    benchmark.extra_info["engine"] = obs.engine_snapshot(system)


@pytest.mark.benchmark(group="e15-explicit")
@pytest.mark.parametrize("size", sorted(EXPLICIT_STATES),
                         ids=lambda size: f"{size[0]}x{size[1]}")
def bench_explore_torus_explicit(benchmark, size):
    """Explicit BFS over the kernel's local tables on a wide model, cold
    tables and memos every round (a fresh model per round)."""
    rows, cols = size
    space = benchmark.pedantic(explore, setup=lambda: (
        (torus(rows, cols),), {"max_states": 10_000}), rounds=3)
    assert space.n_states == EXPLICIT_STATES[size]
    assert not space.truncated
