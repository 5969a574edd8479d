"""Workbench sessions: resolution, run_many determinism, streaming."""

import warnings

import pytest

from repro.sdf import SdfBuilder
from repro.workbench import (
    CampaignSpec,
    ExploreSpec,
    FrontendError,
    SimulateSpec,
    Workbench,
)

APPLICATION = """
application demo {
  agent src
  agent dst
  place src -> dst push 1 pop 1 capacity 2
}
"""


def pipeline(name, length=3, capacity=2):
    builder = SdfBuilder(name)
    for index in range(length):
        builder.agent(f"{name}_a{index}")
    for index in range(length - 1):
        builder.connect(f"{name}_a{index}", f"{name}_a{index+1}",
                        capacity=capacity)
    return builder


@pytest.fixture()
def workbench():
    wb = Workbench()
    wb.add(APPLICATION, name="demo")
    wb.add(pipeline("chain"), name="chain")
    return wb


class TestSession:
    def test_handle_lookup(self, workbench):
        assert workbench.handle("demo").name == "demo"
        assert workbench.names() == ["chain", "demo"]

    def test_load_is_the_session_alias_of_add(self, workbench):
        handle = workbench.load(APPLICATION, name="demo2")
        assert workbench.handle("demo2") is handle

    def test_unknown_handle(self, workbench):
        with pytest.raises(FrontendError, match="no model named"):
            workbench.handle("ghost")

    def test_spec_model_resolves_source_token(self, tmp_path):
        path = tmp_path / "demo.sigpml"
        path.write_text(APPLICATION)
        wb = Workbench()
        result = wb.run(SimulateSpec(str(path), steps=4))
        assert result.ok
        assert result.data["steps_run"] == 4
        # the loaded handle is cached under the token for reuse
        assert wb.run(SimulateSpec(str(path), steps=4)).ok

    def test_run_accepts_doc_and_json(self, workbench):
        doc = {"kind": "simulate", "model": "demo", "steps": 3}
        assert workbench.run(doc).data["steps_run"] == 3
        spec_json = SimulateSpec("demo", steps=3).to_json()
        assert workbench.run(spec_json).data["steps_run"] == 3


class TestFacade:
    def test_facade_is_warning_free(self):
        # the facade calls the engine's one entry point per job: no
        # warning of any kind on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wb = Workbench()
            wb.add(pipeline("clean"), name="clean")
            wb.simulate("clean", steps=5)
            wb.explore("clean")
            wb.campaign("clean", steps=5)
            wb.analyze("clean")
            wb.check("clean", "AG !deadlock")


class TestRunMany:
    def batch(self):
        return [
            SimulateSpec("demo", policy="asap", steps=12),
            SimulateSpec("demo", policy={"name": "random", "seed": 7},
                         steps=12),
            ExploreSpec("demo", max_states=500, include_graph=True),
            SimulateSpec("chain", policy="minimal", steps=10),
            CampaignSpec("chain", steps=8),
            ExploreSpec("chain", max_states=500),
        ]

    def test_results_in_input_order(self, workbench):
        results = workbench.run_many(self.batch(), workers=1)
        assert [r.kind for r in results] == [
            "simulate", "simulate", "explore", "simulate", "campaign",
            "explore"]
        assert [r.model for r in results] == [
            "demo", "demo", "demo", "chain", "chain", "chain"]

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_byte_identical_across_workers(self, workbench, workers):
        baseline = [r.to_json()
                    for r in workbench.run_many(self.batch(), workers=1)]
        parallel = [r.to_json()
                    for r in workbench.run_many(self.batch(),
                                                workers=workers)]
        assert parallel == baseline

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_byte_identical_across_backends(self, workbench, backend,
                                            workers):
        # the farm contract: results do not depend on the backend or
        # the worker count — serial×1 is the baseline all must match.
        # (the 'chain' model is an SdfBuilder handle with no source
        # doc, so this also covers the process backend's in-parent
        # fallback path next to shipped groups)
        baseline = [r.to_json()
                    for r in workbench.run_many(self.batch(), workers=1,
                                                backend="serial")]
        swept = [r.to_json()
                 for r in workbench.run_many(self.batch(),
                                             workers=workers,
                                             backend=backend)]
        assert swept == baseline

    def test_default_backend_stays_in_process(self, monkeypatch):
        # serial is the default: no process pool is spawned, even when
        # workers are asked for and two shippable groups could fan out
        import repro.farm.backend as backend

        def no_pool(*args, **kwargs):
            raise AssertionError("the default backend spawned a pool")

        monkeypatch.setattr(backend, "ProcessPoolExecutor", no_pool)
        wb = Workbench()
        wb.add(APPLICATION, name="one")
        wb.add(APPLICATION, name="two")
        specs = [SimulateSpec(name, steps=4) for name in ("one", "two")]
        results = wb.run_many(specs, workers=2)
        assert [r.status for r in results] == ["ok", "ok"]
        with pytest.raises(AssertionError, match="spawned a pool"):
            wb.run_many(specs, workers=2, backend="process")

    def test_unknown_backend_rejected(self, workbench):
        from repro.farm import BackendError
        with pytest.raises(BackendError, match="unknown backend"):
            workbench.run_many([SimulateSpec("demo", steps=2)],
                               backend="quantum")

    def test_streaming_callback_sees_every_result(self, workbench):
        seen = []
        results = workbench.run_many(
            self.batch(), workers=4,
            on_result=lambda index, result: seen.append((index,
                                                         result.kind)))
        assert sorted(index for index, _ in seen) == list(range(6))
        for index, kind in seen:
            assert results[index].kind == kind

    def test_batch_shares_one_kernel_per_model(self, workbench):
        handle = workbench.handle("demo")
        kernel = handle.execution_model.kernel
        workbench.run_many(self.batch(), workers=2)
        # the batch ran on clones of the registered handle: same kernel,
        # now warm
        assert workbench.handle("demo").execution_model.kernel is kernel
        sizes = kernel.cache_sizes()
        assert sizes["steps"] > 0

    def test_errors_are_contained(self, workbench):
        specs = [SimulateSpec("demo", steps=4),
                 SimulateSpec("demo", policy={"name": "nope"}, steps=4)]
        results = workbench.run_many(specs, workers=2)
        assert results[0].ok
        assert results[1].status == "error"

    def test_missing_model_raises_up_front(self, workbench):
        with pytest.raises(FrontendError):
            workbench.run_many([SimulateSpec("ghost", steps=2)])

    def test_policy_instance_yields_error_result_not_crash(self,
                                                           workbench):
        from repro.engine import AsapPolicy
        specs = [SimulateSpec("demo", policy=AsapPolicy(), steps=2),
                 SimulateSpec("demo", steps=2)]
        results = workbench.run_many(specs, workers=2)
        assert results[0].status == "error"
        assert "serializable" in results[0].error
        assert results[1].ok

    def test_aliased_models_group_by_handle_identity(self, tmp_path):
        # resolving a path token registers the handle under BOTH the
        # token and the application name, so specs can alias one handle
        # through two model strings; the batch must put them in ONE
        # group (the one-worker-per-kernel invariant is per handle)
        import json
        path = tmp_path / "demo.sigpml"
        path.write_text(APPLICATION)
        wb = Workbench()
        specs = [SimulateSpec(str(path), steps=6),
                 ExploreSpec("demo"),
                 SimulateSpec("demo", steps=6),
                 ExploreSpec(str(path))]
        seq = [r.to_json() for r in wb.run_many(specs, workers=1)]
        # both model strings resolve to the same handle object
        assert wb.handle(str(path)) is wb.handle("demo")
        par = [r.to_json() for r in wb.run_many(specs, workers=4)]
        assert par == seq
        # the aliases did identical work: payloads match pairwise
        payloads = [json.loads(text)["data"] for text in par]
        assert payloads[0] == payloads[2]
        assert payloads[1] == payloads[3]
