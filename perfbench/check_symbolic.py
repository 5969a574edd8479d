"""Workload ``check-symbolic``: a property battery on the BDD backend.

One op loads a fresh handle for one generated SDF model and checks a
four-property battery with ``Workbench.check(..., strategy="symbolic")``:
``AG !deadlock``, ``AG EF occurs(x)``, ``AF occurs(x)`` and one of
``leads_to`` or a place-size bound. A round is one pass over a fixed deck
of chain, mesh, torus and deadlocking ("starved") shapes; the seed picks
the deck order, the agent ``x`` and the fourth property of every op.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time

import gen
import refs
from layers import SymbolicCounts, layer_times

#: the shapes of one round; the multiset is fixed so that rounds drawn
#: from different seeds cost the same.
DECK = (
    ("chain", (8, 1)), ("chain", (9, 1)), ("chain", (10, 1)),
    ("chain", (11, 1)), ("chain", (7, 2)), ("chain", (8, 2)),
    ("mesh", (2, 2)), ("mesh", (2, 3)), ("mesh", (2, 4)), ("mesh", (3, 3)),
    ("torus", (2, 2)), ("torus", (2, 3)),
    ("starved", (6,)), ("starved", (7,)), ("starved", (8,)),
)


class Op:
    """One generated op: a model record plus its property battery."""

    def __init__(self, record: dict, live: bool, props: list[tuple]):
        self.record = record
        self.live = live
        self.props = props  # (property id, CTL text)


class Workload:
    name = "check-symbolic"
    child_peak_kb = 0  # no child process does the work

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._counts: dict | None = None
        # the deck's records and references, made once (set-up makes them
        # anyway): remade in every round, the parsing and SDF analysis took
        # run time that the timed ops, which a run samples, can use
        self._deck = {}
        for family, params in DECK:
            record = getattr(gen, family)(*params)
            self._deck[family, params] = (record, refs.deadlock_free(record))

    # -- inputs ------------------------------------------------------------

    def ops(self, round_index: int) -> list[Op]:
        rng = random.Random(f"check-symbolic:{self.seed}:{round_index}")
        deck = list(DECK)
        rng.shuffle(deck)
        ops = []
        for shape in deck:
            record, live = self._deck[shape]
            target = (rng.choice(record["targets"]["events"]) if live
                      else record["targets"]["sink"])
            last = rng.choice(["leads", "bound", "below"])
            props = [(prop_id, refs.property_text(record, prop_id, target))
                     for prop_id in ("deadlock", "live_sink", "inev_sink",
                                     last)]
            ops.append(Op(record, live, props))
        return ops

    # -- phases ------------------------------------------------------------

    def setup(self) -> None:
        from repro.workbench import Workbench
        workbench = Workbench()
        for op in self.ops(0):
            workbench.add(op.record["doc"]["text"])

    def warmup(self) -> None:
        self._run_op(self.ops(-1)[0], None)

    def probe_records(self) -> list[dict]:
        return [gen.torus(2, 2), gen.mesh(2, 3), gen.starved(6)]

    def run_round(self, round_index: int, rec, decomposed: bool) -> dict:
        latencies, failures, digest = [], [], hashlib.sha256()
        counts = SymbolicCounts()
        witness = 0
        ops = self.ops(round_index)
        for op in ops:
            gc.collect()  # outside the timing, so no op pays for another
            started = time.perf_counter()
            results = self._run_op(op, rec if decomposed else None, counts)
            latencies.append(time.perf_counter() - started)
            for (prop_id, _text), result in zip(op.props, results):
                digest.update(result.to_json().encode())
                witness += len(result.data.get("trace", []))
                problem = (f"{op.record['name']}: {result.error}"
                           if not result.ok else
                           refs.check_verdict(op.record, prop_id, op.live,
                                              result.data))
                if problem:
                    failures.append(problem)
        if decomposed and self._counts is None:
            self._counts = {**counts.metrics(),
                            "frontends.models": len(latencies),
                            "ctl.witness_steps": witness}
        return {"wall_s": sum(latencies), "latencies": latencies,
                "keys": [op.record["name"] for op in ops],
                "attempted": len(latencies), "failures": failures,
                "digest": digest.hexdigest()}

    def _run_op(self, op: Op, rec, counts: SymbolicCounts | None = None):
        from repro.workbench import Workbench
        if rec is None:
            workbench = Workbench()
            handle = workbench.add(op.record["doc"]["text"])
            return [workbench.check(handle.name, text, strategy="symbolic")
                    for _prop_id, text in op.props]
        with rec.span("op"):
            with rec.span("frontends"):
                workbench = Workbench()
                handle = workbench.add(op.record["doc"]["text"])
            model = handle.execution_model
            with rec.span("symbolic.compile"):
                system = model.kernel.transition_system(model)
            with rec.span("symbolic.fixpoint"):
                reached = system.reachable_set()
            results = []
            for _prop_id, text in op.props:
                with rec.span("ctl"):
                    results.append(workbench.check(handle.name, text,
                                                   strategy="symbolic"))
        if counts is not None:
            counts.add(system, reached)
        return results

    def native_layers(self, rec) -> dict:
        """Layer figures this workload measures on its own ops."""
        figures = layer_times(rec)
        native = {name: figures[name] for name in (
            "frontends.load_s", "symbolic.compile_s", "symbolic.fixpoint_s",
            "ctl.check_s")}
        native.update(self._counts or {})
        return native

    def finish(self) -> list[str]:
        return []

    def close(self) -> None:
        pass
