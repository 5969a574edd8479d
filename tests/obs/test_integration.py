"""The tracer against the real stack: engine spans, serial and process
batches, and the out-of-band guarantee (artifacts never change)."""

import os

import pytest

from repro import obs
from repro.obs import GLOBAL
from repro.workbench import CheckSpec, ExploreSpec, SimulateSpec, Workbench

APPLICATION = """
application obsdemo {
  agent src
  agent mid
  agent dst
  place src -> mid push 1 pop 1 capacity 2
  place mid -> dst push 1 pop 1 capacity 2
}
"""


def make_workbench(names):
    workbench = Workbench()
    for name in names:
        workbench.add(APPLICATION, name=name)
    return workbench


class TestEngineSpans:
    def test_symbolic_check_emits_the_promised_spans(self, tracer):
        workbench = make_workbench(["app"])
        result = workbench.run(CheckSpec("app", "AG !deadlock",
                                         strategy="symbolic"))
        assert result.status == "ok"
        names = {span.name for span in tracer.spans()}
        assert {"model.load", "workbench.run", "ctl.check",
                "symbolic.compile", "symbolic.closure",
                "symbolic.fixpoint",
                "symbolic.fixpoint.iteration"} <= names
        run = next(s for s in tracer.spans()
                   if s.name == "workbench.run")
        assert run.attrs["model"] == "app"
        assert run.attrs["status"] == "ok"
        check = next(s for s in run.walk() if s.name == "ctl.check")
        assert check.attrs["verdict"] == "HOLDS"

    def test_explicit_explore_emits_bfs_span(self, tracer):
        workbench = make_workbench(["app"])
        workbench.run(ExploreSpec("app", max_states=200))
        bfs = next(s for s in tracer.spans()
                   if s.name == "explore.bfs")
        assert bfs.attrs["states"] > 0
        assert bfs.attrs["truncated"] in (True, False)

    def test_engine_counters_accumulate(self, tracer):
        before = {name: GLOBAL.counter(name)
                  for name in ("symbolic.compiles", "symbolic.images",
                               "model.loads", "explore.spaces")}
        workbench = make_workbench(["app"])
        workbench.run(CheckSpec("app", "AG !deadlock",
                                strategy="symbolic"))
        workbench.run(ExploreSpec("app", max_states=100))
        assert GLOBAL.counter("model.loads") == before["model.loads"] + 1
        assert GLOBAL.counter("symbolic.compiles") == \
            before["symbolic.compiles"] + 1
        assert GLOBAL.counter("symbolic.images") > \
            before["symbolic.images"]
        assert GLOBAL.counter("explore.spaces") == \
            before["explore.spaces"] + 1

    def test_forced_reorder_is_traced_and_counted(self, tracer):
        from repro.boolalg import And, Bdd, Or, Var

        before_runs = GLOBAL.counter("bdd.reorders")
        bdd = Bdd(order=[f"x{i}" for i in range(8)])
        function = Or(*(And(Var(f"x{i}"), Var(f"x{(i + 3) % 8}"))
                        for i in range(8)))
        root = bdd.from_expr(function)
        bdd.reorder(roots=[root])
        assert GLOBAL.counter("bdd.reorders") == before_runs + 1
        span = next(s for s in tracer.spans()
                    if s.name == "bdd.reorder")
        assert span.attrs["auto"] is False
        assert span.attrs["sifted"] >= 1
        assert "bdd.reorder_s" in GLOBAL.snapshot()["latency"]


class TestSerialBackend:
    def test_run_many_nests_every_group(self, tracer):
        names = [f"m{i}" for i in range(8)]
        workbench = make_workbench(names)
        specs = [SimulateSpec(name, steps=4) for name in names]
        results = workbench.run_many(specs)
        assert [r.status for r in results] == ["ok"] * 8
        [root] = [r for r in tracer.roots
                  if r.name == "workbench.run_many"]
        assert root.attrs["backend"] == "serial"
        groups = [c for c in root.children if c.name == "farm.group"]
        assert len(groups) == 8
        assert {g.attrs["model"] for g in groups} == set(names)
        for group in groups:
            assert [c.name for c in group.children] == ["workbench.run"]


class TestProcessBackend:
    def test_worker_spans_ship_back_position_stable(self, tracer):
        workbench = make_workbench(["wa", "wb"])
        specs = [CheckSpec("wa", "AG !deadlock", max_states=300),
                 CheckSpec("wb", "EF deadlock", max_states=300)]
        results = workbench.run_many(specs, backend="process",
                                     workers=2)
        assert [r.status for r in results] == ["ok", "ok"]
        [root] = [r for r in tracer.roots
                  if r.name == "workbench.run_many"]
        workers = [c for c in root.children if c.name == "farm.worker"]
        # adopted in submission order — wa's group first — regardless
        # of which worker process finished first
        assert [w.attrs["model"] for w in workers] == ["wa", "wb"]
        for worker in workers:
            assert worker.pid != os.getpid()
            names = {span.name for span in worker.walk()}
            assert {"model.load", "workbench.run", "ctl.check"} <= names
            assert worker.start >= 0.0

    def test_untraced_process_run_ships_no_envelope(self):
        """With tracing off the worker returns the legacy pair list;
        results are identical either way."""
        assert not obs.tracing_active()
        workbench = make_workbench(["wa", "wb"])
        specs = [SimulateSpec("wa", steps=3), SimulateSpec("wb", steps=3)]
        serial = [r.to_json() for r in
                  workbench.run_many(specs, backend="serial")]
        process = [r.to_json() for r in
                   workbench.run_many(specs, backend="process",
                                      workers=2)]
        assert process == serial


@pytest.mark.parametrize("backend,workers", [("serial", 1),
                                             ("process", 2)])
def test_artifacts_identical_traced_or_not(backend, workers):
    """The out-of-band guarantee, per backend: the canonical result
    JSON of a batch is byte-identical with tracing on and off."""
    specs = [SimulateSpec("wa", steps=5),
             ExploreSpec("wa", max_states=200),
             CheckSpec("wb", "AG !deadlock", max_states=300,
                       witness=True)]

    def run_once():
        workbench = make_workbench(["wa", "wb"])
        return [r.to_json() for r in
                workbench.run_many(specs, backend=backend,
                                   workers=workers)]

    assert not obs.tracing_active()
    untraced = run_once()
    obs.enable_tracing()
    try:
        traced = run_once()
    finally:
        obs.disable_tracing()
    assert traced == untraced
