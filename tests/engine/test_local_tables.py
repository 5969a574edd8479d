"""Explicit exploration through memoized local transition tables.

The reference is the stepping the tables replace: the same BFS skeleton
driven by a model clone, re-running every constraint runtime on every
edge. Every exploration here must match it byte for byte.
"""

import pytest

from repro.ccsl import PrecedesRuntime
from repro.deployment import Allocation, Platform, deploy
from repro.engine import ExecutionModel, LocalTable, explore
from repro.engine.explorer import _bfs
from repro.engine.symbolic import _close_local
from repro.errors import EngineError
from repro.pam.experiments import build_configuration
from repro.sdf import SdfBuilder
from tests.engine.test_symbolic_equivalence import CORPUS
from tests.moccml.test_semantic_corners import watchdog_runtime


def reference(model, max_states=10_000, max_depth=None,
              include_empty=False, maximal_only=False):
    """Explicit exploration by re-running the runtimes edge by edge."""
    return _bfs(model.clone(), model.name, list(model.events),
                max_states=max_states, max_depth=max_depth,
                include_empty=include_empty, strict=False,
                maximal_only=maximal_only)


def assert_same(model, **budgets):
    expected = reference(model, **budgets).to_json()
    assert explore(model, strategy="explicit", **budgets).to_json() \
        == expected
    # a second exploration reads the now-warm tables
    assert explore(model, strategy="explicit", **budgets).to_json() \
        == expected


def deployed_chain(length=4, latency=2):
    builder = SdfBuilder(f"deployed{length}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=2,
                        name=f"p{index}")
    model, app = builder.build()
    platform = Platform("duo")
    platform.processor("cpu0")
    platform.processor("cpu1")
    platform.link("cpu0", "cpu1", latency=latency)
    half = length // 2
    allocation = Allocation({f"a{index}": "cpu0" if index < half else "cpu1"
                             for index in range(length)})
    return deploy(model, app, platform, allocation).execution_model


def unbounded_precedes():
    return ExecutionModel(["a", "b"], [PrecedesRuntime("a", "b")],
                          name="unbounded")


def watchdog():
    return ExecutionModel(["kick", "alarm"], [watchdog_runtime()],
                          name="watchdog")


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_equivalence_corpus(self, name):
        assert_same(CORPUS[name](), max_states=20_000)

    @pytest.mark.parametrize("make", [
        deployed_chain,
        lambda: build_configuration("mono"),
        lambda: build_configuration("dual"),
    ], ids=["deployed-chain", "pam-mono", "pam-dual"])
    def test_locally_unbounded_comm_delays(self, make):
        assert_same(make())

    @pytest.mark.parametrize("max_states", [1, 7, 50])
    def test_unbounded_precedes_truncates(self, max_states):
        model = unbounded_precedes()
        space = explore(model, max_states=max_states)
        assert space.truncated
        assert_same(model, max_states=max_states)

    def test_empty_step_transition(self):
        # the watchdog's miss counter is unbounded: truncate both ways
        model = watchdog()
        with_empty = explore(model, include_empty=True, max_states=200)
        assert with_empty.n_states > explore(model, max_states=200).n_states
        assert_same(model, include_empty=True, max_states=200)

    @pytest.mark.parametrize("name", ["chain3-cap2", "forkjoin",
                                      "ccsl-mix"])
    def test_maximal_only(self, name):
        assert_same(CORPUS[name](), maximal_only=True)

    @pytest.mark.parametrize("max_depth", [0, 1, 3])
    def test_max_depth(self, max_depth):
        assert_same(CORPUS["chain3-cap2"](), max_depth=max_depth)
        assert_same(deployed_chain(), max_depth=max_depth)

    def test_auto_below_threshold_and_unencodable_use_tables(self):
        for model in (CORPUS["ccsl-mix"](), deployed_chain()):
            assert explore(model, strategy="auto").to_json() \
                == reference(model).to_json()


class TestTableSharing:
    def test_clones_share_one_table_set(self):
        model = CORPUS["chain3-cap2"]()
        clone = model.clone()
        explore(clone)
        tables = clone.kernel.tables
        assert len(tables) == len(model.constraints)
        assert model.kernel.tables is tables
        explore(model)
        assert model.kernel.tables is tables  # reused, not rebuilt

    def test_mid_simulation_configuration(self):
        model = deployed_chain()
        explore(model)  # tables rooted at the initial configuration
        for _ in range(5):
            model.advance(model.acceptable_steps()[-1])
        configuration = model.configuration()
        snapshot = model.snapshot()
        expected = reference(model).to_json()
        assert explore(model).to_json() == expected
        assert model.configuration() == configuration
        assert model.snapshot() == snapshot

    def test_tables_fill_only_as_far_as_explored(self):
        model = unbounded_precedes()
        explore(model, max_states=5)
        small = model.kernel.cache_sizes()["local_states"]
        explore(model, max_states=40)
        assert model.kernel.cache_sizes()["local_states"] > small


class TestCacheLifecycle:
    def test_cache_sizes_report_tables(self):
        model = CORPUS["ccsl-mix"]()
        assert model.kernel.cache_sizes()["local_tables"] == 0
        assert model.kernel.cache_sizes()["local_states"] == 0
        space = explore(model)
        sizes = model.kernel.cache_sizes()
        assert sizes["local_tables"] == len(model.constraints)
        assert 0 < sizes["local_states"] <= \
            space.n_states * len(model.constraints)

    def test_kernel_clear_drops_tables(self):
        model = CORPUS["ccsl-mix"]()
        before = explore(model).to_json()
        model.kernel.clear()
        assert model.kernel.tables == []
        assert model.kernel.cache_sizes()["local_states"] == 0
        assert explore(model).to_json() == before

    def test_clear_caches_drops_tables(self):
        model = CORPUS["ccsl-mix"]()
        explore(model)
        old = model.kernel
        model.clear_caches()
        assert model.kernel is not old
        assert model.kernel.cache_sizes()["local_tables"] == 0


class TestLocalTable:
    def test_closure_is_a_closed_table(self):
        table = _close_local(0, PrecedesRuntime("a", "b", bound=2), 64)
        assert isinstance(table, LocalTable)
        assert table.closed and table.n_states == 3
        with pytest.raises(EngineError, match="not acceptable"):
            table.step(0, frozenset({"b"}))  # nothing to consume yet

    def test_lazy_table_fills_on_miss(self):
        runtime = PrecedesRuntime("a", "b")
        table = LocalTable(0, runtime)
        assert table.n_states == 1 and not table.closed
        one = table.step(0, frozenset({"a"}))
        assert table.n_states == 2
        assert table.keys[one] == (runtime.label, 1)
        assert table.step(0, frozenset({"a"})) == one  # memoized
        assert runtime.state_key() == table.keys[0]  # caller untouched

    def test_locate_admits_unseen_states(self):
        runtime = PrecedesRuntime("a", "b")
        table = LocalTable(0, runtime)
        probe = runtime.clone()
        for _ in range(3):
            probe.advance(frozenset({"a"}))
        local_id = table.locate(probe)
        assert table.keys[local_id] == probe.state_key()
        assert table.locate(probe) == local_id
