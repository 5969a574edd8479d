"""Store keys on a resident model: the handle builds its fingerprint
prefix once per configuration, threads share it without feeding it, and
a store that cannot take a write never costs the computed result."""

import sys
import threading

import pytest

import repro.farm
from repro.farm import ArtifactStore
from repro.serve.server import AnalysisService
from repro.workbench import CheckSpec, SimulateSpec, Workbench, load
from tests.farm.test_fingerprint import SMOKE, reference


@pytest.fixture()
def builds(monkeypatch):
    """Count the model serializations the store-key path performs."""
    calls = []
    original = repro.farm.model_doc

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(repro.farm, "model_doc", counting)
    return calls


class TestOneBuildPerConfiguration:
    def test_served_requests_serialize_the_model_once(self, tmp_path,
                                                      builds):
        handles = []

        def loader(source_doc):
            handles.append(load(source_doc["text"]))
            return handles[-1]

        service = AnalysisService(store=tmp_path / "store", loader=loader)
        document = {"models": {"smoke": {"frontend": "sigpml",
                                         "text": SMOKE}},
                    "runs": [{"kind": "simulate", "model": "smoke",
                              "steps": 5},
                             {"kind": "check", "model": "smoke",
                              "property": "AG !deadlock"}]}
        summaries = [service.handle_request(document, lambda _: None)
                     for _ in range(10)]
        assert [summary["cached"] for summary in summaries] == \
            [0] + [2] * 9
        assert len(handles) == 1  # one resident model
        assert builds == [handles[0].execution_model]

        # a resident model whose configuration moved builds anew, and
        # its keys are those of the moved model
        model = handles[0].execution_model
        before = model.configuration()
        model.advance(model.acceptable_steps()[0])
        assert model.configuration() != before
        summary = service.handle_request(document, lambda _: None)
        assert summary["cached"] == 0
        assert builds == [model, model]
        store = ArtifactStore(tmp_path / "store")
        spec = SimulateSpec("smoke", steps=5)
        assert store.get(reference(model, spec)) is not None
        service.close()

    def test_session_runs_on_one_handle_serialize_once(self, tmp_path,
                                                       builds):
        workbench = Workbench(store=tmp_path / "store")
        handle = workbench.add(SMOKE)
        for steps in range(1, 6):
            workbench.simulate("smoke", steps=steps)
        workbench.run_many([SimulateSpec("smoke", steps=steps)
                            for steps in range(6, 9)])
        assert builds == [handle.execution_model]


class TestSharedPrefixStress:
    def test_threads_share_one_prefix_without_feeding_it(self, tmp_path):
        handle = load(SMOKE)
        store = ArtifactStore(tmp_path / "store")
        threads_count, per_thread = 8, 4
        batches = [[SimulateSpec("smoke", steps=4,
                                 policy={"name": "random",
                                         "seed": thread * per_thread + i})
                    for i in range(per_thread)]
                   for thread in range(threads_count)]
        results: dict[int, list] = {}
        failures = []

        def worker(index: int) -> None:
            try:
                workbench = Workbench(store=store)
                workbench.attach("smoke", handle)
                results[index] = workbench.run_many(batches[index])
            except BaseException as exc:  # surfaced by the assertions
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for thread in threads:
            assert not thread.is_alive()
        assert not failures
        model = handle.execution_model
        for index, batch in enumerate(batches):
            for spec, result in zip(batch, results[index]):
                assert result.ok and not result.cached
                assert store.get(reference(model, spec)) == result.to_doc()
        assert store.stats()["entries"] == threads_count * per_thread


class TestUnwritableStore:
    """A regular file where the spec's shard directory belongs: the
    write fails, and the computed result is returned uncached."""

    @pytest.fixture()
    def blocked(self, tmp_path):
        spec = CheckSpec("smoke", "AG !deadlock")
        key = reference(load(SMOKE).execution_model, spec)
        store = ArtifactStore(tmp_path / "store")
        (store.objects / key[:2]).write_text("not a shard directory")
        return store, spec

    def test_run_returns_the_computed_result(self, blocked):
        store, spec = blocked
        workbench = Workbench(store=store)
        workbench.add(SMOKE)
        result = workbench.run(spec)
        assert result.ok and not result.cached

    def test_run_many_returns_the_computed_result(self, blocked):
        store, spec = blocked
        workbench = Workbench()
        workbench.add(SMOKE)
        other = SimulateSpec("smoke", steps=3)
        results = workbench.run_many([spec, other], store=store)
        assert [result.ok for result in results] == [True, True]
        assert [result.cached for result in results] == [False, False]
