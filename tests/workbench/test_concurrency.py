"""Thread-safe workbench sharing and callback-cancellation semantics.

These are the session-layer guarantees the analysis server builds on:
a raising ``on_result`` must cancel the batch cleanly (not wedge the
backend), and one workbench must be shareable across threads with
byte-identical results.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.workbench import ExploreSpec, SimulateSpec, Workbench

APPLICATION = """
application shared_demo {
  agent src
  agent mid
  agent dst
  place src -> mid push 1 pop 1 capacity 2
  place mid -> dst push 1 pop 1 capacity 2
}
"""


MODELS = ("demo", "twin")


@pytest.fixture()
def workbench():
    wb = Workbench()
    for name in MODELS:
        wb.add(APPLICATION, name=name)
    return wb


def battery(count=6):
    """Specs spread over two text-loaded models: two shippable groups,
    so the process backend really fans out to workers instead of
    running a lone group in the parent."""
    return [SimulateSpec(MODELS[i % 2], steps=4 + i)
            for i in range(count)]


class TestCallbackCancellation:
    """Satellite bugfix: ``run_many`` must not wedge when ``on_result``
    raises — it cancels cleanly and surfaces the exception."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_raising_callback_surfaces_and_cancels(self, workbench,
                                                   backend):
        seen = []

        def poisoned(index, result):
            seen.append(index)
            raise ValueError("downstream pipe burst")

        with pytest.raises(ValueError, match="pipe burst"):
            workbench.run_many(battery(), backend=backend, workers=2,
                               on_result=poisoned)
        # cancellation is cooperative: the first callback fired, the
        # batch stopped streaming after the failure (the process
        # backend cancels the second worker's merge)
        assert len(seen) == 1

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_workbench_survives_a_poisoned_batch(self, workbench,
                                                 backend):
        def poisoned(index, result):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            workbench.run_many(battery(), backend=backend, workers=2,
                               on_result=poisoned)
        # not wedged: the same workbench runs the next batch fine
        results = workbench.run_many(battery(3), backend=backend,
                                     workers=2)
        assert all(result.ok for result in results)

    def test_later_callbacks_suppressed_after_failure(self, workbench):
        calls = []

        def poisoned(index, result):
            calls.append(index)
            raise ValueError("first failure wins")

        with pytest.raises(ValueError):
            workbench.run_many(battery(), backend="serial",
                               on_result=poisoned)
        # the serial backend stops at the next spec boundary: exactly
        # one callback fired, the rest were never executed
        assert calls == [calls[0]]

    def test_prior_results_still_written_through(self, workbench,
                                                 tmp_path):
        failures = []

        def poison_second(index, result):
            if len(failures) == 0 and index == 1:
                failures.append(index)
                raise ValueError("stop here")

        with pytest.raises(ValueError):
            workbench.run_many(battery(3), backend="serial",
                               store=tmp_path / "store",
                               on_result=poison_second)
        # results computed before the failure were stored: re-running
        # the full battery finds them warm
        results = workbench.run_many(battery(3), backend="serial",
                                     store=tmp_path / "store")
        assert results[0].cached and results[1].cached

    def test_store_failure_also_cancels(self, workbench):
        # the callback contract holds for every backend, including one
        # raising on the very first result
        def immediate(index, result):
            raise KeyboardInterrupt  # even BaseException must not wedge

        with pytest.raises(BaseException):
            workbench.run_many(battery(2), backend="serial",
                               on_result=immediate)


class TestSharedWorkbench:
    def test_concurrent_run_many_is_byte_identical(self, workbench):
        specs = [SimulateSpec("demo", steps=10),
                 ExploreSpec("demo", max_states=500)]
        reference = [result.to_json()
                     for result in workbench.run_many(specs)]

        def run():
            return [result.to_json()
                    for result in workbench.run_many(specs)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            payloads = [future.result(timeout=60)
                        for future in [pool.submit(run)
                                       for _ in range(8)]]
        assert all(payload == reference for payload in payloads)

    def test_attach_aliases_without_renaming(self, workbench):
        handle = workbench.handle("demo")
        alias = workbench.attach("alias", handle)
        assert alias is handle
        assert handle.name == "demo"  # attach never mutates the handle
        assert workbench.handle("alias") is handle
        # results carry the request-local spec.model, so aliasing
        # cannot change artifact bytes
        result = workbench.run(SimulateSpec("alias", steps=3))
        assert result.model == "alias"

    def test_aliased_specs_share_one_group(self, workbench):
        handle = workbench.handle("demo")
        workbench.attach("alias", handle)
        specs = [SimulateSpec("demo", steps=5),
                 SimulateSpec("alias", steps=5)]
        results = workbench.run_many(specs)
        assert results[0].model == "demo"
        assert results[1].model == "alias"
        assert results[0].data == results[1].data

    def test_concurrent_source_token_resolution_shares_handle(
            self, tmp_path):
        path = tmp_path / "demo.sigpml"
        path.write_text(APPLICATION)
        wb = Workbench()
        spec = SimulateSpec(str(path), steps=3)

        def run():
            return wb.run(spec)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = [future.result(timeout=60)
                       for future in [pool.submit(run)
                                      for _ in range(6)]]
        assert all(result.ok for result in results)
        # the token is registered (first registration wins) and every
        # later run resolves to that one handle, racing threads or not
        assert str(path) in wb.names()
        token_handle = wb.handle(str(path))
        assert wb._resolve(spec) is token_handle
