"""Model cache: fingerprint keying, single-flight admission, two-bound
LRU eviction, and real kernel release on eviction."""

import gc
import threading
import weakref

import pytest

from repro.serve.metrics import Metrics
from repro.serve.state import ModelCache, ServeError, model_key, \
    resident_nodes

# ---------------------------------------------------------------------------
# stub handles: the cache's contract with a handle is tiny (an
# execution_model with clear_caches()/_kernel, an optional exec_lock)
# ---------------------------------------------------------------------------


class FakeKernel:
    def __init__(self, nodes):
        self._nodes = nodes

    def cache_sizes(self):
        return {"bdd_nodes": self._nodes}

    def engine_telemetry(self):
        return None


class FakeModel:
    def __init__(self, nodes=0):
        self._kernel = FakeKernel(nodes) if nodes else None
        self.cleared = 0

    def clear_caches(self):
        self._kernel = None
        self.cleared += 1


class FakeHandle:
    def __init__(self, name, nodes=0):
        self.name = name
        self.execution_model = FakeModel(nodes)
        self.exec_lock = threading.RLock()


def doc(n):
    return {"frontend": "fake", "id": n}


def fake_loader(source_doc):
    return FakeHandle(f"model-{source_doc['id']}")


class TestModelKey:
    def test_stable(self):
        assert model_key(doc(1)) == model_key(doc(1))
        assert model_key(doc(1)) != model_key(doc(2))

    def test_key_ignores_key_order(self):
        a = {"frontend": "sigpml", "text": "x"}
        b = {"text": "x", "frontend": "sigpml"}
        assert model_key(a) == model_key(b)

    def test_non_json_raises(self):
        with pytest.raises(ServeError):
            model_key({"bad": object()})


class TestResidentNodes:
    def test_no_kernel_is_zero_without_materializing(self):
        handle = FakeHandle("h")
        assert resident_nodes(handle) == 0
        assert handle.execution_model._kernel is None

    def test_counts_kernel_nodes(self):
        handle = FakeHandle("h", nodes=42)
        assert resident_nodes(handle) == 42


class TestAcquire:
    def test_miss_then_hit(self):
        metrics = Metrics()
        cache = ModelCache(max_models=4, metrics=metrics,
                           loader=fake_loader)
        first = cache.acquire(doc(1))
        second = cache.acquire(doc(1))
        assert first is second
        assert second.hits == 1
        counters = metrics.snapshot()["counters"]
        assert counters["model_cache_misses"] == 1
        assert counters["model_cache_hits"] == 1
        assert counters["model_compiles"] == 1

    def test_compile_latency_observed(self):
        metrics = Metrics()
        cache = ModelCache(max_models=4, metrics=metrics,
                           loader=fake_loader)
        cache.acquire(doc(1))
        assert metrics.snapshot()["latency"]["compile_s"]["count"] == 1

    def test_failed_build_leaves_no_residue(self):
        calls = []

        def flaky(source_doc):
            calls.append(source_doc)
            if len(calls) == 1:
                raise RuntimeError("front-end exploded")
            return FakeHandle("ok")

        cache = ModelCache(max_models=4, loader=flaky)
        with pytest.raises(RuntimeError):
            cache.acquire(doc(1))
        assert len(cache) == 0
        # the next request retries cleanly
        entry = cache.acquire(doc(1))
        assert entry.handle.name == "ok"
        assert len(calls) == 2


class TestSingleFlight:
    def test_concurrent_acquires_compile_once(self):
        builds = []
        gate = threading.Event()

        def slow_loader(source_doc):
            builds.append(source_doc)
            gate.wait(timeout=5)
            return FakeHandle("shared")

        cache = ModelCache(max_models=4, loader=slow_loader)
        entries = []
        errors = []

        def worker():
            try:
                entries.append(cache.acquire(doc(1)))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(builds) == 1  # the herd compiled once
        assert len({id(entry) for entry in entries}) == 1

    def test_failed_build_raises_in_every_waiter(self):
        gate = threading.Event()

        def doomed_loader(source_doc):
            gate.wait(timeout=5)
            raise RuntimeError("doomed")

        cache = ModelCache(max_models=4, loader=doomed_loader)
        outcomes = []

        def worker():
            try:
                cache.acquire(doc(1))
                outcomes.append("ok")
            except RuntimeError:
                outcomes.append("raised")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert outcomes == ["raised"] * 4
        assert len(cache) == 0


class TestEviction:
    def test_entry_count_lru(self):
        cache = ModelCache(max_models=2, loader=fake_loader)
        first = cache.acquire(doc(1))
        cache.acquire(doc(2))
        cache.acquire(doc(1))  # refresh 1: now 2 is the LRU
        cache.acquire(doc(3))  # evicts 2
        assert len(cache) == 2
        assert first.handle.execution_model.cleared == 0
        # re-acquiring 2 is a miss (it was evicted), 1 is a hit
        metrics = Metrics()
        cache.metrics = metrics
        cache.acquire(doc(1))
        counters = metrics.snapshot()["counters"]
        assert counters.get("model_cache_hits", 0) == 1

    def test_eviction_clears_caches(self):
        cache = ModelCache(max_models=1, loader=fake_loader)
        first = cache.acquire(doc(1))
        cache.acquire(doc(2))
        assert first.handle.execution_model.cleared == 1
        assert cache.evictions == 1

    def test_node_budget_evicts(self):
        def heavy_loader(source_doc):
            return FakeHandle(f"m{source_doc['id']}", nodes=1000)

        cache = ModelCache(max_models=10, max_nodes=2500,
                           loader=heavy_loader)
        cache.acquire(doc(1))
        cache.acquire(doc(2))
        assert len(cache) == 2  # 2000 nodes: under budget
        cache.acquire(doc(3))  # 3000 > 2500: oldest goes
        assert len(cache) == 2
        assert cache.node_total() == 2000

    def test_never_evicts_the_protected_entry(self):
        def heavy_loader(source_doc):
            return FakeHandle(f"m{source_doc['id']}", nodes=1000)

        # budget below a single model: the just-admitted entry must
        # survive (protected), everything else goes
        cache = ModelCache(max_models=10, max_nodes=500,
                           loader=heavy_loader)
        cache.acquire(doc(1))
        entry = cache.acquire(doc(2))
        assert len(cache) == 1
        assert cache.acquire(doc(2)) is entry

    def test_busy_entries_are_skipped(self):
        # the runner is a *different* thread (as in the server, where
        # eviction happens on one request thread while another holds
        # the handle's exec_lock for the duration of its run group)
        cache = ModelCache(max_models=1, loader=fake_loader)
        busy = cache.acquire(doc(1))
        held = threading.Event()
        release = threading.Event()

        def runner():
            with busy.handle.exec_lock:
                held.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=runner)
        thread.start()
        held.wait(timeout=10)
        try:
            cache.acquire(doc(2))
            # the busy entry was spared: transient overshoot
            assert len(cache) == 2
            assert busy.handle.execution_model.cleared == 0
        finally:
            release.set()
            thread.join(timeout=10)
        # with the lock released the next admission trims back down
        cache.acquire(doc(3))
        assert len(cache) == 1

    def test_evict_all(self):
        cache = ModelCache(max_models=4, loader=fake_loader)
        entries = [cache.acquire(doc(n)) for n in range(3)]
        assert cache.evict_all() == 3
        assert len(cache) == 0
        assert all(e.handle.execution_model.cleared == 1
                   for e in entries)


class TestTelemetry:
    def test_shape(self):
        cache = ModelCache(max_models=4, loader=fake_loader)
        cache.acquire(doc(1))
        report = cache.telemetry()
        assert report["models"] == 1
        assert report["max_models"] == 4
        assert report["evictions"] == 0
        entry = report["entries"][0]
        assert set(entry) == {"key", "name", "hits", "compile_s",
                              "age_s", "idle_s", "bdd_nodes"}


class TestKernelRelease:
    """Satellite: eviction must make the real BDD managers garbage."""

    MODEL = """
    application release_probe {
      agent a
      agent b
      place a -> b push 1 pop 1 capacity 2
    }
    """

    def test_clear_caches_releases_the_kernel(self):
        from repro.workbench import load
        source_doc = {"frontend": "sigpml", "text": self.MODEL}

        def loader(doc_):
            from repro.workbench.frontends import source_from_doc
            return load(source_from_doc(doc_))

        cache = ModelCache(max_models=4, loader=loader)
        entry = cache.acquire(source_doc)
        model = entry.handle.execution_model
        # materialize the kernel the way a symbolic run would
        model.kernel.transition_system(model).to_statespace(max_states=500)
        kernel = model._kernel
        assert kernel is not None
        assert resident_nodes(entry.handle) > 0
        probe = weakref.ref(kernel)
        del kernel
        assert cache.evict_all() == 1
        del entry, model
        gc.collect()
        assert probe() is None, \
            "evicted kernel (and its BDD managers) must be collectable"
