"""The tracer core: nesting, thread fan-out, adoption, the no-op mode."""

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs import tracer as tracer_module


class TestNesting:
    def test_spans_nest_by_call_order(self, tracer):
        with obs.span("outer", kind="demo"):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b"):
                pass
        [root] = tracer.roots
        assert root.name == "outer"
        assert root.attrs == {"kind": "demo"}
        assert [child.name for child in root.children] == ["inner.a",
                                                           "inner.b"]

    def test_set_attaches_late_attributes(self, tracer):
        with obs.span("work") as span:
            span.set(states=42, verdict="HOLDS")
        [root] = tracer.roots
        assert root.attrs == {"states": 42, "verdict": "HOLDS"}

    def test_span_exits_and_attaches_on_exception(self, tracer):
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise ValueError("boom")
        # both spans closed, correctly nested — and the contextvar is
        # reset, so the next span is a new root, not a child of "outer"
        [root] = tracer.roots
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner"]
        assert root.end >= root.start
        with obs.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["outer", "after"]

    def test_durations_are_ordered(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        [root] = tracer.roots
        [inner] = root.children
        assert 0.0 <= inner.duration <= root.duration

    def test_to_doc_roundtrip_preserves_the_tree(self, tracer):
        with obs.span("outer", model="m"):
            with obs.span("inner", depth=1):
                pass
        [doc] = tracer.to_docs()
        assert doc["name"] == "outer"
        assert doc["attrs"] == {"model": "m"}
        [child] = doc["children"]
        assert child["name"] == "inner"
        assert child["attrs"] == {"depth": 1}
        assert child["start"] >= doc["start"]


class TestThreadFanOut:
    def test_copied_contexts_parent_worker_spans(self, tracer):
        """The thread fan-out pattern: submitting through
        ``contextvars.copy_context().run`` nests each worker-thread
        span under the span that was current at submission."""

        def work(index):
            with obs.span("worker", index=index):
                pass

        with obs.span("fanout"):
            pool = ThreadPoolExecutor(max_workers=8)
            try:
                futures = [
                    pool.submit(contextvars.copy_context().run, work, i)
                    for i in range(8)
                ]
                for future in futures:
                    future.result()
            finally:
                pool.shutdown(wait=True)
        [root] = tracer.roots
        assert root.name == "fanout"
        assert len(root.children) == 8
        assert {c.attrs["index"] for c in root.children} == set(range(8))

    def test_uncopied_threads_become_roots(self, tracer):
        """A bare thread does not inherit the submitter's context: its
        spans float as roots instead of corrupting the caller's tree."""
        with obs.span("main"):
            thread = threading.Thread(
                target=lambda: obs.span("floating").__enter__().__exit__(
                    None, None, None))
            thread.start()
            thread.join()
        names = sorted(root.name for root in tracer.roots)
        assert names == ["floating", "main"]
        [main] = [r for r in tracer.roots if r.name == "main"]
        assert main.children == []

    def test_concurrent_attach_loses_no_spans(self, tracer):
        """64 threads x 50 spans each: every attach lands."""

        def work():
            for index in range(50):
                with obs.span("hot", i=index):
                    pass

        threads = [threading.Thread(target=work) for _ in range(64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(1 for _ in tracer.spans()) == 64 * 50


class TestAdoption:
    def _worker_docs(self):
        """Span trees the way a process worker ships them."""
        worker = tracer_module.Tracer()
        worker.pid = 4242
        with tracer_module.Span(worker, "farm.worker", {"runs": 2}):
            with tracer_module.Span(worker, "workbench.run", {}):
                pass
        return worker.to_docs()

    def test_adopt_rebases_times_and_overrides_pid(self, tracer):
        docs = self._worker_docs()
        with obs.span("merge"):
            [adopted] = tracer.adopt(docs, offset=10.0, pid=7)
        assert adopted.name == "farm.worker"
        assert adopted.pid == 7
        assert adopted.start >= 10.0
        [child] = adopted.children
        assert child.pid == 7
        assert child.start >= adopted.start
        # adopted under the span that was current at the adopt call
        [root] = tracer.roots
        assert root.name == "merge"
        assert root.children == [adopted]

    def test_adoption_order_is_position_stable(self, tracer):
        """Merging envelopes in submission order keeps the trace
        deterministic regardless of worker completion order."""
        first = self._worker_docs()
        second = self._worker_docs()
        second[0]["attrs"]["runs"] = 99
        with obs.span("merge"):
            tracer.adopt(first, offset=1.0)
            tracer.adopt(second, offset=2.0)
        [root] = tracer.roots
        assert [c.attrs["runs"] for c in root.children] == [2, 99]

    def test_adopt_without_current_span_creates_roots(self, tracer):
        tracer.adopt(self._worker_docs())
        assert [root.name for root in tracer.roots] == ["farm.worker"]


class TestDisabledMode:
    def test_span_is_the_shared_noop_singleton(self):
        assert not obs.tracing_active()
        first = obs.span("anything", big=object())
        second = obs.span("else")
        assert first is second
        with first as span:
            span.set(ignored=1)

    def test_disabled_mode_allocates_no_span(self, monkeypatch):
        """With no tracer installed, ``obs.span`` must never construct
        a Span — the constructor is patched to explode."""
        assert not obs.tracing_active()

        def explode(*args, **kwargs):
            raise AssertionError("Span allocated with tracing off")

        monkeypatch.setattr(tracer_module.Span, "__init__", explode)
        with obs.span("hot.path", expensive=0):
            pass

    def test_enable_disable_roundtrip(self):
        assert obs.current_tracer() is None
        installed = obs.enable_tracing()
        assert obs.tracing_active()
        assert obs.current_tracer() is installed
        assert obs.disable_tracing() is installed
        assert not obs.tracing_active()
        assert obs.disable_tracing() is None


class TestCapture:
    def test_capture_installs_and_uninstalls(self):
        assert not obs.tracing_active()
        with obs.capture() as tracer:
            assert obs.current_tracer() is tracer
            with obs.span("inside"):
                pass
        assert not obs.tracing_active()
        assert [root.name for root in tracer.roots] == ["inside"]

    def test_nested_capture_reuses_the_outer_tracer(self):
        """``repro profile`` wrapping ``--trace``: the inner capture
        must not steal or tear down the outer tracer."""
        with obs.capture() as outer:
            with obs.capture() as inner:
                assert inner is outer
                with obs.span("shared"):
                    pass
            assert obs.current_tracer() is outer  # still installed
        assert not obs.tracing_active()
        assert [root.name for root in outer.roots] == ["shared"]
