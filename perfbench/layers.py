"""Per-layer attribution, measured from outside the program.

:class:`Recorder` keeps spans recorded by the benchmark's own code around
calls into each layer's public functions; a layer's self time is its
span's duration minus the time its child spans cover. The program's own
spans (``repro.obs``) are not used.

:func:`probe_layers` drives every layer once over a small, fixed set of
a workload's own models, so that a traced run can report every layer
metric even for layers the workload's operations never call. A workload
overwrites the probe figures with its own for the layers it exercises.

Layer times (``*_s``) are mean self seconds per call into the layer;
counts come from the first traced round (or the probe's fixed inputs),
so they repeat exactly between two runs of one seed.
"""

from __future__ import annotations

import collections
import contextlib
import os
import statistics
import threading
import time

#: families whose models the symbolic backend can encode cheaply
SYMBOLIC_FAMILIES = frozenset({"chain", "mesh", "torus", "starved",
                               "ccsl_bounded", "moccml_window"})

#: every per-layer metric a traced run reports, with its unit
LAYER_METRICS = {
    "frontends.load_s": "s", "frontends.models": "count",
    "symbolic.compile_s": "s", "symbolic.fixpoint_s": "s",
    "symbolic.images": "count", "symbolic.states": "count",
    "bdd.peak_nodes": "count", "bdd.reorders": "count",
    "bdd.ite_hit_rate": "ratio",
    "ctl.check_s": "s", "ctl.witness_steps": "count",
    "explorer.explore_s": "s", "explorer.states": "count",
    "explorer.states_per_s": "1/s",
    "simulator.simulate_s": "s", "simulator.steps_per_s": "1/s",
    "lint.lint_s": "s", "sat.decisions": "count",
    "farm.backend_speedup": "ratio",
    "farm.fingerprint_s": "s", "farm.store_read_s": "s",
    "farm.store_write_s": "s", "farm.store_hit_rate": "ratio",
    "serve.server_p50_ms": "ms", "serve.transport_ms": "ms",
    "serve.model_compiles": "count", "serve.model_cache_hit_rate": "ratio",
    "serve.evictions": "count",
    "cli.import_s": "s", "cli.cold_check_s": "s",
    "trace.overhead_frac": "ratio",
}


class Recorder:
    """In-memory spans: name, start, end, parent, self time."""

    def __init__(self):
        self.spans: list[dict] = []
        #: work counted at the same boundaries (states explored, ...)
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "start": time.perf_counter(),
                  "parent": stack[-1]["id"] if stack else None,
                  "children_s": 0.0}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            duration = record["end"] - record["start"]
            record["self_s"] = duration - record["children_s"]
            if stack:
                stack[-1]["children_s"] += duration

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span["name"] == name)

    def self_s(self, name: str) -> float:
        return sum(span["self_s"] for span in self.spans
                   if span["name"] == name)

    def mean_self_s(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_s(name) / calls if calls else 0.0

    def op_violations(self, op_name: str = "op") -> list[str]:
        """Spans whose self time exceeds the wall time of their op."""
        by_id = {span["id"]: span for span in self.spans}
        bad = []
        for span in self.spans:
            op = span
            while op["parent"] is not None and op["name"] != op_name:
                op = by_id[op["parent"]]
            if op["name"] == op_name and op is not span and \
                    span["self_s"] > op["end"] - op["start"]:
                bad.append(f"{span['name']} self {span['self_s']:.6f}s > "
                           f"op {op['end'] - op['start']:.6f}s")
        return bad


class NoRecorder:
    """The untraced stand-in: spans cost one shared null context."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def add(self, name: str, amount: int) -> None:
        pass


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-quantile (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def load_record(record: dict):
    """A fresh handle for a generated model record."""
    from repro.workbench import load, source_from_doc
    return load(source_from_doc(record["doc"]), name=record["name"],
                **record["doc"].get("options", {}))


class SymbolicCounts:
    """Exact symbolic/BDD counts summed over compiled systems."""

    def __init__(self):
        self.images = self.states = self.peak_nodes = self.reorders = 0
        self.ite_hits = self.ite_misses = 0

    def add(self, system, reached) -> None:
        telemetry = system.telemetry()
        self.images += telemetry["images"]
        self.states += reached.count()
        self.peak_nodes = max(self.peak_nodes, telemetry["bdd_nodes"])
        self.reorders += telemetry["reorders"]
        ite = telemetry["cache"]["ite"]
        self.ite_hits += ite["hits"]
        self.ite_misses += ite["misses"]

    def metrics(self) -> dict:
        lookups = self.ite_hits + self.ite_misses
        return {"symbolic.images": self.images,
                "symbolic.states": self.states,
                "bdd.peak_nodes": self.peak_nodes,
                "bdd.reorders": self.reorders,
                "bdd.ite_hit_rate": self.ite_hits / lookups if lookups
                else 0.0}


def sat_decisions() -> int:
    from repro import obs
    return obs.GLOBAL.counter("sat.decisions")


def store_replay(pairs, store_dir: str) -> dict:
    """Fingerprint, write and read back each (handle, spec, result) in a
    fresh artifact store; per-call median seconds."""
    from repro.farm import ArtifactStore, model_doc, try_fingerprint
    store = ArtifactStore(store_dir)
    fingerprint_s, write_s, read_s = [], [], []
    documents = {}
    for handle, spec, result in pairs:
        model = handle.execution_model
        if id(handle) not in documents:
            documents[id(handle)] = model_doc(model)
        started = time.perf_counter()
        key = try_fingerprint(model, spec, model_document=documents[id(handle)])
        fingerprint_s.append(time.perf_counter() - started)
        document = result.to_doc()
        started = time.perf_counter()
        store.put(key, document)
        write_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        if store.get(key) != document:
            raise RuntimeError(f"store round trip changed {key}")
        read_s.append(time.perf_counter() - started)
    return {"farm.fingerprint_s": median(fingerprint_s),
            "farm.store_write_s": median(write_s),
            "farm.store_read_s": median(read_s)}


def serve_metrics(metrics: dict, before: dict | None = None) -> dict:
    """Serve-layer figures from a ``/metrics`` document (counter deltas
    against *before* when given). ``serve.server_p50_ms`` is the
    histogram's bucket-interpolated p50 over the server's life;
    ``_server_mean_ms`` is the exact mean request time since *before*,
    which the caller turns into ``serve.transport_ms``."""
    counters = metrics["counters"]
    base = before["counters"] if before else {}

    def delta(name):
        return counters.get(name, 0) - base.get(name, 0)

    lookups = delta("model_cache_hits") + delta("model_cache_misses")
    served = delta("store_hits") + delta("store_misses")
    request = metrics["latency"].get("request_s", {})
    request_before = (before or {}).get("latency", {}).get("request_s", {})
    requests = request.get("count", 0) - request_before.get("count", 0)
    request_s = request.get("sum_s", 0.0) - request_before.get("sum_s", 0.0)
    return {
        "serve.server_p50_ms": 1000 * request.get("p50_s", 0.0),
        "_server_mean_ms": 1000 * request_s / requests if requests else 0.0,
        "serve.model_compiles": delta("model_compiles"),
        "serve.model_cache_hit_rate": (delta("model_cache_hits") / lookups
                                       if lookups else 0.0),
        "serve.evictions": delta("model_evictions"),
        "farm.store_hit_rate": delta("store_hits") / served if served
        else 0.0,
    }


def serve_probe(records, specs_for, workdir: str) -> dict:
    """An in-process server over *records*: one cold and two warm passes
    of one request per model, with one model fewer resident than used."""
    from repro.serve import fetch_metrics, serve, submit
    server = serve(port=0, store=os.path.join(workdir, "probe-serve"),
                   max_models=max(1, len(records) - 1), workers=2).start()
    latencies = []
    try:
        for _pass in range(3):
            for record in records:
                document = {"models": {record["name"]: record["doc"]},
                            "runs": [spec.to_doc()
                                     for spec in specs_for(record)]}
                started = time.perf_counter()
                submit(document, server.url, timeout=120)
                latencies.append(time.perf_counter() - started)
        metrics = fetch_metrics(server.url)
    finally:
        server.drain()
    figures = serve_metrics(metrics)
    figures["serve.transport_ms"] = (1000 * statistics.fmean(latencies) -
                                     figures.pop("_server_mean_ms"))
    return figures


def probe_specs(record: dict) -> list:
    """The spec set the probe runs on one model."""
    from repro.workbench import CheckSpec, ExploreSpec, LintSpec, SimulateSpec
    name = record["name"]
    return [ExploreSpec(name, max_states=2000),
            CheckSpec(name, "AG !deadlock", strategy="explicit",
                      max_states=2000),
            SimulateSpec(name, steps=30),
            LintSpec(name)]


def backend_speedup(records, specs, workers: int = 2) -> float:
    """Serial wall time of one cold batch over its default-backend wall
    time (fresh workbench and handles on each side)."""
    from repro.workbench import Workbench
    walls = {}
    for backend in ("serial", None):
        workbench = Workbench()
        started = time.perf_counter()
        for record in records:
            workbench.attach(record["name"], load_record(record))
        options = {} if backend is None else {"backend": backend}
        workbench.run_many(specs, workers=workers, **options)
        walls[backend] = time.perf_counter() - started
    return walls["serial"] / walls[None]


def probe_layers(records, workdir: str) -> dict:
    """Every layer metric, measured over *records* (a small fixed set)."""
    from repro.workbench import execute
    rec = Recorder()
    counts = SymbolicCounts()
    decisions = witness = 0
    pairs = []
    for record in records:
        with rec.span("frontends"):
            handle = load_record(record)
        model = handle.execution_model
        if record["family"] in SYMBOLIC_FAMILIES:
            with rec.span("symbolic.compile"):
                system = model.kernel.transition_system(model)
            with rec.span("symbolic.fixpoint"):
                reached = system.reachable_set()
            counts.add(system, reached)
        explore, check, simulate, lint = probe_specs(record)
        with rec.span("explorer"):
            result = execute(explore, handle)
        rec.add("explorer.states", result.data["summary"]["states"])
        with rec.span("explorer"):
            space = model.kernel.explored_space(model,
                                                max_states=check.max_states)
        rec.add("explorer.states", space.n_states)
        with rec.span("ctl"):
            checked = execute(check, handle)
        witness += len(checked.data.get("trace", []))
        with rec.span("simulator"):
            simulation = execute(simulate, handle)
        rec.add("simulator.steps", simulation.data["steps_run"])
        before = sat_decisions()
        with rec.span("lint"):
            linted = execute(lint, handle)
        decisions += sat_decisions() - before
        pairs += [(handle, spec, outcome) for spec, outcome in
                  ((explore, result), (check, checked),
                   (simulate, simulation), (lint, linted))]
    figures = layer_times(rec)
    figures.update(counts.metrics())
    figures.update({"frontends.models": len(records),
                    "ctl.witness_steps": witness,
                    "explorer.states": rec.counts["explorer.states"],
                    "sat.decisions": decisions})
    figures.update(store_replay(pairs, os.path.join(workdir, "probe-farm")))
    specs = [spec for record in records for spec in probe_specs(record)]
    figures["farm.backend_speedup"] = backend_speedup(records, specs)
    figures.update(serve_probe(records, probe_specs, workdir))
    return figures


def layer_times(rec: Recorder) -> dict:
    """The per-call self times of the engine layers in *rec*, plus the
    explorer and simulator throughputs over the states and steps counted
    in it."""
    explore_s = rec.self_s("explorer")
    simulate_s = rec.self_s("simulator")
    explored_states = rec.counts["explorer.states"]
    simulated_steps = rec.counts["simulator.steps"]
    return {
        "frontends.load_s": rec.mean_self_s("frontends"),
        "symbolic.compile_s": rec.mean_self_s("symbolic.compile"),
        "symbolic.fixpoint_s": rec.mean_self_s("symbolic.fixpoint"),
        "ctl.check_s": rec.mean_self_s("ctl"),
        "explorer.explore_s": rec.mean_self_s("explorer"),
        "explorer.states_per_s": (explored_states / explore_s
                                  if explore_s else 0.0),
        "simulator.simulate_s": rec.mean_self_s("simulator"),
        "simulator.steps_per_s": (simulated_steps / simulate_s
                                  if simulate_s else 0.0),
        "lint.lint_s": rec.mean_self_s("lint"),
    }
