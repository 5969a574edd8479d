"""Workload ``batch-explicit``: one cold batch over all five front-ends.

A round loads a freshly generated corpus (SDF chains, deployed chains, a
PAM configuration, CCSL and MoCCML models) into a new workbench and runs
its specs in one ``Workbench.run_many(specs)`` with the library's
default backend, one worker and no store: explicit ``explore`` and
``check``, ``simulate``, ``campaign`` and ``lint``. One op is one spec;
its latency is the time from the start of ``run_many`` until its result
is delivered, which is what a caller streaming the batch waits for.

The timed batch runs on one worker. Two worker threads only take turns
on the interpreter lock, and on a small shared host the moment each turn
is handed over depends on the scheduler, not on the program: rounds with
two workers spread by a quarter between runs of the same code. What a
second worker gains is reported by the traced run as
``farm.backend_speedup``.
"""

from __future__ import annotations

import hashlib
import random
import time

import gen
import refs
from layers import backend_speedup, layer_times, load_record, sat_decisions

#: chain shapes of every round, fixed so rounds cost the same
CHAINS = ((7, 1), (5, 3))

#: worker threads of the timed batch
WORKERS = 1
#: worker threads of the batch ``farm.backend_speedup`` compares with a
#: serial one
SPEEDUP_WORKERS = 2


class Workload:
    name = "batch-explicit"
    child_peak_kb = 0  # no child process does the work

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._counts: dict | None = None

    # -- inputs ------------------------------------------------------------

    def corpus(self, round_index: int) -> tuple[list[dict], list, dict]:
        """(records, specs, {name: (record, live)}) of one round."""
        from repro.workbench import (CampaignSpec, CheckSpec, ExploreSpec,
                                     LintSpec, SimulateSpec)
        rng = random.Random(f"batch-explicit:{self.seed}:{round_index}")
        # every round checks the same shapes and property templates, so
        # rounds of every seed cost the same; the seed draws only the
        # target events and the random policies' seeds
        records = [gen.chain(n, c) for n, c in CHAINS]
        records += [
            gen.deployed_chain(5, 2, 1, name="dep_live"),
            gen.deployed_chain(5, 2, 2, name="dep_stuck"),
            gen.pam("mono"), gen.pam("dual"),
            gen.ccsl_bounded(4, name="bounded"),
            gen.moccml_window(3, name="window"),
        ]
        specs, index = [], {}
        for record in records:
            name = record["name"]
            live = refs.deadlock_free(record)
            index[name] = (record, live)
            target = record["targets"]["sink"]
            if live and "events" in record["targets"]:
                target = rng.choice(record["targets"]["events"])
            specs.append(ExploreSpec(name))
            specs += [CheckSpec(name, refs.property_text(record, prop_id,
                                                         target),
                                strategy="explicit", label=prop_id)
                      for prop_id in refs.property_ids(record)]
            specs += [
                SimulateSpec(name, steps=30, policy={
                    "name": "random", "seed": rng.randrange(1000)}),
                CampaignSpec(name, steps=20, policies=[
                    "asap", "minimal",
                    {"name": "random", "seed": rng.randrange(1000)}]),
            ]
            if record["family"] != "pam":  # PAM lint alone costs seconds
                specs.append(LintSpec(name))
        return records, specs, index

    # -- phases ------------------------------------------------------------

    def setup(self) -> None:
        import repro.lint  # noqa: F401 - part of the batch's import cost
        from repro.workbench import Workbench
        workbench = Workbench()
        for record in self.corpus(0)[0]:
            workbench.attach(record["name"], load_record(record))

    def warmup(self) -> None:
        from repro.workbench import Workbench
        records, specs, _index = self.corpus(-1)
        workbench = Workbench()
        workbench.attach(records[0]["name"], load_record(records[0]))
        workbench.run_many([s for s in specs if s.model == records[0]["name"]],
                           workers=WORKERS)

    def probe_records(self) -> list[dict]:
        records = self.corpus(0)[0]
        return [records[0], records[-2], records[-1]]  # chain, ccsl, moccml

    def run_round(self, round_index: int, rec, decomposed: bool) -> dict:
        records, specs, index = self.corpus(round_index)
        if decomposed:
            results, latencies, wall = self._decomposed(records, specs, rec)
        else:
            results, latencies, wall = self._batch(records, specs)
        failures, digest = [], hashlib.sha256()
        for result in results:
            digest.update(result.to_json().encode())
            record, live = index[result.model]
            problem = refs.check_result(record, live, result)
            if problem:
                failures.append(problem)
        # the k-th delivery is the same op in every round: the shapes and
        # spec templates are fixed and one worker runs them in order
        return {"wall_s": wall, "latencies": latencies,
                "keys": list(range(len(latencies))),
                "attempted": len(specs), "failures": failures,
                "digest": digest.hexdigest()}

    def _batch(self, records, specs):
        from repro.workbench import Workbench
        latencies = []
        started = time.perf_counter()
        workbench = Workbench()
        for record in records:
            workbench.attach(record["name"], load_record(record))
        batch_start = time.perf_counter()

        def on_result(_index, _result):
            latencies.append(time.perf_counter() - batch_start)

        results = workbench.run_many(specs, workers=WORKERS,
                                     on_result=on_result)
        return results, latencies, time.perf_counter() - started

    def _decomposed(self, records, specs, rec):
        """The batch one spec at a time, each call inside its layer's
        span (``Workbench.execute`` is what every backend runs per spec)."""
        from repro.workbench import execute
        started = time.perf_counter()
        handles = {}
        for record in records:
            with rec.span("frontends"):
                handles[record["name"]] = load_record(record)
        results, latencies, spaces = [], [], set()
        explored = decisions = 0
        for spec in specs:
            handle = handles[spec.model]
            model = handle.execution_model
            op_start = time.perf_counter()
            with rec.span("op"):
                if spec.kind == "explore":
                    with rec.span("explorer"):
                        result = execute(spec, handle)
                    explored += result.data["summary"]["states"]
                    rec.add("explorer.states", result.data["summary"]["states"])
                elif spec.kind == "check":
                    with rec.span("explorer"):
                        space = model.kernel.explored_space(
                            model, max_states=spec.max_states)
                    if spec.model not in spaces:  # later checks reuse it
                        spaces.add(spec.model)
                        explored += space.n_states
                        rec.add("explorer.states", space.n_states)
                    with rec.span("ctl"):
                        result = execute(spec, handle)
                elif spec.kind == "lint":
                    before = sat_decisions()
                    with rec.span("lint"):
                        result = execute(spec, handle)
                    decisions += sat_decisions() - before
                else:
                    with rec.span("simulator"):
                        result = execute(spec, handle)
                    rec.add("simulator.steps", result.data["steps_run"]
                            if spec.kind == "simulate" else
                            sum(row["steps"] for row in result.data["rows"]))
            latencies.append(time.perf_counter() - op_start)
            results.append(result)
        if self._counts is None:
            self._counts = {
                "frontends.models": len(records),
                "explorer.states": explored, "sat.decisions": decisions,
                "ctl.witness_steps": sum(
                    len(r.data.get("trace", [])) for r in results
                    if r.kind == "check")}
        return results, latencies, time.perf_counter() - started

    def native_layers(self, rec) -> dict:
        figures = layer_times(rec)
        native = {name: figures[name] for name in (
            "frontends.load_s", "ctl.check_s", "explorer.explore_s",
            "simulator.simulate_s", "lint.lint_s")}
        native.update(self._counts or {})
        records, specs, _index = self.corpus(0)
        native["farm.backend_speedup"] = backend_speedup(records, specs,
                                                         SPEEDUP_WORKERS)
        return native

    def finish(self) -> list[str]:
        return []

    def close(self) -> None:
        pass
