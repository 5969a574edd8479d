"""Backends and the store-through batch runner."""

import json

import pytest

from repro.engine.execution_model import ExecutionModel
from repro.farm import BACKENDS, ArtifactStore, BackendError
from repro.farm.backend import GroupTask, _split_for_shipping, \
    _worker_run_group, execute_groups
from repro.workbench import (
    CcslSpec,
    CheckSpec,
    ExploreSpec,
    SimulateSpec,
    Workbench,
    load,
)

APPLICATION = """
application bdemo {
  agent src
  agent mid
  agent dst
  place src -> mid push 1 pop 1 capacity 2
  place mid -> dst push 1 pop 1 capacity 2
}
"""


def make_workbench(store=None):
    wb = Workbench(store=store)
    wb.add(APPLICATION, name="bdemo")
    wb.add(CcslSpec("clocks", events=["a", "b"],
                    constraints=[("Alternates", ["a", "b"])]),
           name="clocks")
    return wb


def batch():
    return [SimulateSpec("bdemo", steps=10),
            ExploreSpec("bdemo", max_states=300),
            CheckSpec("bdemo", "AG !deadlock", max_states=300),
            SimulateSpec("clocks", steps=8),
            SimulateSpec("bdemo", policy={"name": "random", "seed": 5},
                         steps=10)]


class TestWorkerRoundTrip:
    def test_worker_rebuilds_and_matches_parent(self):
        wb = make_workbench()
        parent = [r.to_json() for r in wb.run_many(batch(),
                                                   backend="serial")]
        handle = wb.handle("bdemo")
        indices = [i for i, s in enumerate(batch())
                   if s.model == "bdemo"]
        specs = [s for s in batch() if s.model == "bdemo"]
        shippable, local = _split_for_shipping(
            [GroupTask(handle=handle, indices=indices, specs=specs)])
        assert local == []
        [(_group, payload)] = shippable
        returned = dict(_worker_run_group(payload))
        for index in indices:
            assert returned[index] == parent[index]

    def test_payload_is_plain_json(self):
        wb = make_workbench()
        handle = wb.handle("clocks")
        shippable, _local = _split_for_shipping(
            [GroupTask(handle=handle, indices=[0],
                       specs=[SimulateSpec("clocks")])])
        document = json.loads(shippable[0][1])
        assert document["source"]["frontend"] == "ccsl"
        assert document["runs"][0]["spec"]["kind"] == "simulate"


class TestExecuteGroups:
    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            execute_groups([], backend="quantum", workers=2,
                           deliver=lambda i, r: None)

    def test_serial_and_process_are_the_only_backends(self):
        # threads cannot run the pure-Python engine in parallel, so
        # there is no thread backend; serial is the run_many default
        assert BACKENDS == ("serial", "process")
        with pytest.raises(BackendError, match="unknown backend"):
            execute_groups([], backend="thread", workers=2,
                           deliver=lambda i, r: None)

    def test_unshippable_group_falls_back_in_process_backend(self):
        # a bare ExecutionModel handle has no source_doc; the process
        # backend must still produce its results (in the parent)
        model = ExecutionModel(["x"], [], name="bare")
        wb = Workbench()
        wb.add(load(model), name="bare")
        wb.add(APPLICATION, name="bdemo")
        assert wb.handle("bare").source_doc is None
        specs = [SimulateSpec("bare", steps=3),
                 SimulateSpec("bdemo", steps=3)]
        serial = [r.to_json() for r in wb.run_many(specs,
                                                   backend="serial")]
        process = [r.to_json() for r in wb.run_many(specs, workers=4,
                                                    backend="process")]
        assert process == serial

    def test_error_results_survive_the_process_boundary(self):
        wb = make_workbench()
        specs = [SimulateSpec("bdemo", policy={"name": "nope"}, steps=2),
                 SimulateSpec("bdemo", steps=2)]
        results = wb.run_many(specs, workers=4, backend="process")
        assert results[0].status == "error"
        assert "nope" in results[0].error
        assert results[1].ok

    def test_unserializable_spec_in_shippable_group_stays_per_spec(self):
        # a bare policy instance cannot cross the process boundary; it
        # must yield its usual per-spec error result (computed in the
        # parent), not abort the whole batch from the payload builder
        from repro.engine import AsapPolicy
        wb = make_workbench()
        specs = [SimulateSpec("bdemo", policy=AsapPolicy(), steps=2),
                 SimulateSpec("bdemo", steps=2),
                 SimulateSpec("clocks", steps=2)]
        serial = wb.run_many(specs, backend="serial")
        process = wb.run_many(specs, workers=4, backend="process")
        assert process[0].status == "error"
        assert "serializable" in process[0].error
        assert [r.to_json() for r in process] \
            == [r.to_json() for r in serial]


class TestStoreThroughBatch:
    def test_cold_then_warm_byte_identical(self, tmp_path):
        store = ArtifactStore(tmp_path / "farm")
        cold = [r.to_json() for r in
                make_workbench(store).run_many(batch())]
        warm_results = make_workbench(store).run_many(batch())
        assert [r.to_json() for r in warm_results] == cold
        assert all(r.cached for r in warm_results)

    def test_error_results_are_not_cached(self, tmp_path):
        store = ArtifactStore(tmp_path / "farm")
        wb = make_workbench(store)
        specs = [SimulateSpec("bdemo", policy={"name": "nope"}, steps=2)]
        wb.run_many(specs)
        again = wb.run_many(specs)
        assert again[0].status == "error"
        assert not again[0].cached
        assert store.stats()["entries"] == 0

    def test_corrupted_entry_recomputes_and_heals(self, tmp_path):
        store = ArtifactStore(tmp_path / "farm")
        make_workbench(store).run_many(batch())
        entries = list(store.objects.glob("??/*.json"))
        for path in entries:
            path.write_bytes(b"corrupted beyond recognition")
        results = make_workbench(store).run_many(batch())
        assert all(r.ok for r in results)
        assert not any(r.cached for r in results)
        # the recomputation healed every slot
        warm = make_workbench(store).run_many(batch())
        assert all(r.cached for r in warm)

    def test_unfingerprintable_specs_run_uncached(self, tmp_path):
        from repro.engine import AsapPolicy
        store = ArtifactStore(tmp_path / "farm")
        wb = make_workbench(store)
        specs = [SimulateSpec("bdemo", policy=AsapPolicy(), steps=2),
                 SimulateSpec("bdemo", steps=2)]
        first = wb.run_many(specs)
        assert first[0].status == "error"  # instances are not serializable
        assert first[1].ok and not first[1].cached
        second = wb.run_many(specs)
        assert second[1].cached

    def test_store_param_overrides_session(self, tmp_path):
        wb = make_workbench()
        other = ArtifactStore(tmp_path / "other")
        wb.run_many(batch(), store=other)
        assert other.stats()["entries"] == len(batch())
        warm = wb.run_many(batch(), store=other)
        assert all(r.cached for r in warm)
        # and no store at all for the session default
        cold = wb.run_many(batch())
        assert not any(r.cached for r in cold)

    def test_digest_consistent_non_result_document_is_a_miss(self,
                                                             tmp_path):
        # an envelope can be store-valid (digest matches) yet hold a
        # document RunResult cannot rebuild — that must recompute, not
        # raise out of run_many
        store = ArtifactStore(tmp_path / "farm")
        wb = make_workbench(store)
        specs = [SimulateSpec("bdemo", steps=4)]
        wb.run_many(specs)
        [path] = list(store.objects.glob("??/*.json"))
        fingerprint = path.stem
        store.put(fingerprint, {"format": 1, "kind": "simulate",
                                "model": "bdemo", "spec": [1, 2]})
        results = make_workbench(store).run_many(specs)
        assert results[0].ok
        assert not results[0].cached

    def test_failing_store_write_never_costs_a_result(self, tmp_path,
                                                      monkeypatch):
        from repro.farm.store import StoreError
        store = ArtifactStore(tmp_path / "farm")

        def broken_put(fingerprint, doc):
            raise StoreError("disk full")

        monkeypatch.setattr(store, "put", broken_put)
        results = make_workbench(store).run_many(batch())
        assert all(r.ok for r in results)  # computed despite the store
        assert store.stats()["entries"] == 0

    def test_single_run_uses_the_session_store(self, tmp_path):
        wb = make_workbench(store=tmp_path / "farm")
        first = wb.run(SimulateSpec("bdemo", steps=6))
        second = wb.run(SimulateSpec("bdemo", steps=6))
        assert not first.cached
        assert second.cached
        assert second.to_json() == first.to_json()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_warm_store_serves_every_backend(self, tmp_path, backend):
        store = ArtifactStore(tmp_path / "farm")
        cold = [r.to_json() for r in
                make_workbench(store).run_many(batch())]
        warm = make_workbench(store).run_many(batch(), workers=4,
                                              backend=backend)
        assert [r.to_json() for r in warm] == cold
        assert all(r.cached for r in warm)
