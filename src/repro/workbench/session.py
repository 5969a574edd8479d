"""The :class:`Workbench` session: load models, run specs, batch runs.

One workbench holds named :class:`~repro.workbench.frontends.ModelHandle`
instances and executes :class:`~repro.workbench.artifacts.RunSpec`
descriptions against them. :meth:`Workbench.run_many` is the batch
runner: specs are grouped by model so every run on one model shares
that model's persistent symbolic kernel (each run gets its own pristine
clone; clones share compiled BDD nodes and step enumerations), and the
groups run through one of the :mod:`repro.farm.backend` executors —
``"serial"`` (the default) or ``"process"`` (rebuilds models in workers
from their declarative source docs, scaling the pure-Python BDD/BFS
work with cores). Grouping also makes every fan-out safe: a kernel is
only ever touched by one worker at a time.

Caching & parallelism
=====================

A workbench (or a single ``run_many`` call) may carry an
:class:`~repro.farm.store.ArtifactStore`: every spec is fingerprinted
against its model (:mod:`repro.farm.fingerprint` — SHA-256 over the
model's canonical serialization, the spec's canonical JSON and the
engine version), previously computed results are served byte-identical
from the store with ``result.cached = True``, and fresh results are
written through. Choosing a backend:

============  ========================================================
``serial``    the default: one group after another in the caller's
              thread, sharing every warm kernel — the baseline the
              process backend must match byte for byte
``process``   true multi-core scaling for cold batches over several
              models; workers rebuild models from handle source docs,
              so programmatic handles (builders, bare execution
              models) transparently fall back to the parent
============  ========================================================

Fingerprint caveats: an engine version bump invalidates every cached
artifact (by construction — the version is hashed), and handles whose
constraints the fingerprint encoder does not know are computed fresh
every time rather than risking a collision.

Results are streamed through an optional callback as they complete and
returned in input order; every run builds its policies fresh from the
spec, so the results — byte for byte — do not depend on ``workers``,
``backend``, or cache temperature.

Sharing one workbench across threads
====================================

A :class:`Workbench` is safe to share between request threads (the
``repro serve`` daemon does): the handle registry is guarded by an
internal lock, and every :class:`~repro.workbench.frontends.ModelHandle`
carries an ``exec_lock`` that the execution backends hold for the
duration of a run group — the shared symbolic kernel behind a handle is
only ever touched by one thread at a time, concurrent calls on *other*
models proceed in parallel. :meth:`Workbench.attach` registers an
already-loaded handle under a session-local alias without renaming it,
so several sessions (one per server request) can share one warm handle
under different names.

If an ``on_result`` callback raises, the batch is cancelled
cooperatively — remaining specs are skipped at the next spec boundary
and pending process-worker merges are cancelled — and the callback's
exception is re-raised to the ``run_many`` caller once the backend has
quiesced.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro import obs
from repro.engine.campaign import campaign as _campaign
from repro.engine.explorer import explore as _explore
from repro.engine.simulator import simulate_model
from repro.errors import ReproError, SerializationError
from repro.workbench.artifacts import (
    AnalyzeSpec,
    CampaignSpec,
    CheckSpec,
    ExploreSpec,
    LintSpec,
    RunResult,
    RunSpec,
    SimulateSpec,
)
from repro.workbench.frontends import FrontendError, ModelHandle, load
from repro.workbench.policies import make_policy


def execute(spec: RunSpec, handle: ModelHandle) -> RunResult:
    """Run one spec against one handle; never raises on engine errors."""
    result = RunResult(kind=spec.kind, model=spec.model, label=spec.label)
    with obs.span("workbench.run", model=spec.model,
                  kind=spec.kind) as trace:
        try:
            # to_doc is inside the guard: a non-serializable spec (e.g.
            # a policy instance instead of a name/mapping) yields an
            # error result instead of aborting a whole batch
            result.spec = spec.to_doc()
            result.data = _EXECUTORS[spec.kind](spec, handle)
        except ReproError as exc:
            result.status = "error"
            result.error = str(exc)
        trace.set(status=result.status)
    return result


#: default sentinel: "use the session store" (an explicit ``store=None``
#: disables caching for one call)
_SESSION_STORE = object()


def _execute_simulate(spec: RunSpec, handle: ModelHandle) -> dict:
    model = handle.fresh()
    policy = make_policy(spec.policy)
    outcome = simulate_model(model, policy, spec.steps)
    trace = outcome.trace
    data = {
        "policy": policy.name,
        "events": list(trace.events),
        "steps_run": outcome.steps_run,
        "deadlocked": outcome.deadlocked,
        "stop_reason": outcome.stop_reason,
        "final_accepting": outcome.final_accepting,
        "counts": trace.counts(),
        "max_parallelism": trace.max_parallelism(),
        "mean_parallelism": round(trace.mean_parallelism(), 6),
    }
    if spec.options.get("include_trace", True):
        data["trace"] = [sorted(step) for step in trace]
    return data


def _execute_explore(spec: RunSpec, handle: ModelHandle) -> dict:
    space = _explore(handle.execution_model, max_states=spec.max_states,
                     max_depth=spec.max_depth,
                     include_empty=spec.include_empty,
                     maximal_only=spec.maximal_only,
                     strategy=spec.strategy,
                     relation_mode=spec.relation_mode,
                     cluster_cap=spec.options.get("cluster_cap"))
    data = {
        "strategy": spec.strategy,
        "summary": space.summary(),
        "parallelism_histogram": {
            str(size): count
            for size, count in sorted(
                space.parallelism_histogram().items())},
    }
    if spec.options.get("include_graph", False):
        import json
        data["statespace"] = json.loads(space.to_json())
    return data


def _default_watch(handle: ModelHandle) -> list[str]:
    events = handle.execution_model.events
    starts = [event for event in events if event.endswith(".start")]
    return starts or list(events)


def _execute_campaign(spec: RunSpec, handle: ModelHandle) -> dict:
    watch = spec.watch if spec.watch is not None else _default_watch(handle)
    policies = None
    if spec.policies is not None:
        policies = [make_policy(p) for p in spec.policies]
    rows = _campaign(handle.execution_model, steps=spec.steps,
                     watch_events=list(watch), policies=policies)
    return {"steps": spec.steps, "watch": list(watch),
            "rows": [row.as_dict() for row in rows]}


def _execute_check(spec: RunSpec, handle: ModelHandle) -> dict:
    from repro.engine.ctl import check
    if not spec.prop:
        raise FrontendError(
            "a check spec needs a 'property' (e.g. 'AG !deadlock')")
    outcome = check(handle.execution_model, spec.prop,
                    strategy=spec.strategy, max_states=spec.max_states,
                    max_depth=spec.max_depth,
                    include_empty=spec.include_empty,
                    relation_mode=spec.relation_mode,
                    cluster_cap=spec.options.get("cluster_cap"),
                    witness=spec.options.get("include_witness", True))
    return outcome.to_doc()


def _execute_analyze(spec: RunSpec, handle: ModelHandle) -> dict:
    from repro.sdf.analysis import analyze
    if handle.application is None:
        raise FrontendError(
            f"model {handle.name!r} (front-end {handle.frontend!r}) has "
            f"no DSL application to analyze")
    info = analyze(handle.application)
    data = {
        "agents": list(info.agents),
        "places": list(info.places),
        "consistent": info.consistent,
        "repetition": dict(info.repetition),
        "schedule": list(info.schedule) if info.schedule else None,
        "deadlock_free": info.deadlock_free,
        "buffer_bounds": dict(info.buffer_bounds),
    }
    if info.consistent:
        data["iteration_length"] = info.iteration_length
    return data


def _execute_lint(spec: RunSpec, handle: ModelHandle) -> dict:
    from repro.lint import lint_handle
    rules = tuple(spec.rules) if spec.rules is not None else None
    return lint_handle(handle, rules=rules).to_doc()


_EXECUTORS = {
    "simulate": _execute_simulate,
    "explore": _execute_explore,
    "campaign": _execute_campaign,
    "analyze": _execute_analyze,
    "check": _execute_check,
    "lint": _execute_lint,
}


class Workbench:
    """A session over named model handles — the system's front door.

    *store* (optional) is an :class:`~repro.farm.store.ArtifactStore`
    or a path to create one at; with it, every run the session executes
    is served from / written through the content-addressed result
    store (see the module docstring's caching section).
    """

    def __init__(self, store=None):
        self._handles: dict[str, ModelHandle] = {}
        #: guards the handle registry only — execution serializes on the
        #: per-handle ``exec_lock`` instead, so registering new models
        #: never blocks behind a long-running analysis
        self._lock = threading.RLock()
        self.store = _coerce_store(store)

    # -- loading -----------------------------------------------------------

    def add(self, source, name: str | None = None,
            frontend: str | None = None, **options) -> ModelHandle:
        """Load *source* and register the handle (see
        :func:`repro.workbench.load`)."""
        handle = load(source, frontend=frontend, name=name, **options)
        with self._lock:
            self._handles[handle.name] = handle
        return handle

    #: ``wb.load(...)`` reads naturally in sessions; same as :meth:`add`.
    load = add

    def attach(self, name: str, handle: ModelHandle) -> ModelHandle:
        """Register an already-loaded *handle* under *name* — an alias.

        Unlike ``add(handle, name=...)`` this never mutates the handle
        (its own ``name`` is untouched), so a handle cached by a
        long-lived service can be attached to many request-scoped
        sessions under per-request names concurrently.
        """
        with self._lock:
            self._handles[name] = handle
        return handle

    def handle(self, name: str) -> ModelHandle:
        """The registered handle named *name*."""
        with self._lock:
            try:
                return self._handles[name]
            except KeyError:
                raise FrontendError(
                    f"no model named {name!r} in this workbench; loaded: "
                    f"{', '.join(sorted(self._handles)) or '(none)'}") \
                    from None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._handles)

    def _resolve(self, spec: RunSpec) -> ModelHandle:
        """Resolve ``spec.model``: a registered name, else a loadable
        source token (a path), cached under both keys."""
        with self._lock:
            if spec.model in self._handles:
                return self._handles[spec.model]
        handle = self.add(spec.model)  # loads outside the registry lock
        with self._lock:
            # two threads may have loaded the same token concurrently;
            # the first registration wins so both use one handle/kernel
            return self._handles.setdefault(spec.model, handle)

    # -- running -----------------------------------------------------------

    def run(self, spec: RunSpec | dict | str) -> RunResult:
        """Execute one spec (a :class:`RunSpec`, doc, or JSON text).

        With a session store the result is served from / written
        through the cache (``result.cached`` says which happened).
        """
        spec = _coerce_spec(spec)
        handle = self._resolve(spec)
        if self.store is None:
            return execute(spec, handle)
        from repro.farm import try_fingerprint
        document = _try_model_doc(handle)
        fingerprint = None
        if document is not None:
            fingerprint = try_fingerprint(handle.execution_model, spec,
                                          model_document=document)
        cached = _store_lookup(self.store, fingerprint)
        if cached is not None:
            return cached
        result = execute(spec, handle)
        _store_write(self.store, fingerprint, result)
        return result

    def simulate(self, model: str, policy="asap", steps: int = 20,
                 **options) -> RunResult:
        return self.run(SimulateSpec(model, policy=policy, steps=steps,
                                     **options))

    def explore(self, model: str, **kwargs) -> RunResult:
        return self.run(ExploreSpec(model, **kwargs))

    def campaign(self, model: str, steps: int = 40,
                 watch: list[str] | None = None,
                 policies: list | None = None, **options) -> RunResult:
        return self.run(CampaignSpec(model, steps=steps, watch=watch,
                                     policies=policies, **options))

    def analyze(self, model: str, **options) -> RunResult:
        return self.run(AnalyzeSpec(model, **options))

    def check(self, model: str, prop: str, strategy: str = "auto",
              **options) -> RunResult:
        return self.run(CheckSpec(model, prop, strategy=strategy,
                                  **options))

    def lint(self, model: str, rules: list[str] | None = None,
             **options) -> RunResult:
        return self.run(LintSpec(model, rules=rules, **options))

    def run_many(self, specs: Iterable[RunSpec | dict | str],
                 workers: int = 1,
                 on_result: Callable[[int, RunResult], None] | None = None,
                 backend: str = "serial",
                 store=_SESSION_STORE) -> list[RunResult]:
        """Execute many specs, batched per model, optionally in parallel.

        Specs are grouped by model; each group runs sequentially on its
        model's shared symbolic kernel (one pristine clone per run),
        and the groups run on the chosen *backend* (``"serial"`` or
        ``"process"`` — see :mod:`repro.farm.backend`) with up to
        *workers* workers. *store* (an
        :class:`~repro.farm.store.ArtifactStore` or path) overrides the
        session store: cached results are served byte-identically with
        ``result.cached = True``, fresh ones are written through.

        *on_result* is called as ``(index, result)`` the moment each
        run finishes — indices refer to the input order, which the
        returned list also follows. Results are independent of
        *workers*, *backend*, and cache temperature. An explicit
        ``store=None`` disables caching for this call only.

        A raising *on_result* cancels the batch: remaining specs are
        skipped cooperatively at the next spec boundary, results
        already computed are still written through to the store, and
        the callback's exception is re-raised here once the backend has
        quiesced.
        """
        specs = [_coerce_spec(spec) for spec in specs]
        with obs.span("workbench.run_many", runs=len(specs),
                      backend=backend, workers=workers):
            return self._run_many_impl(specs, workers, on_result, backend,
                                       store)

    def _run_many_impl(self, specs: list[RunSpec], workers: int,
                       on_result: Callable[[int, RunResult], None] | None,
                       backend: str, store) -> list[RunResult]:
        from repro.farm import GroupTask, execute_groups, try_fingerprint

        store = (self.store if store is _SESSION_STORE
                 else _coerce_store(store))
        results: list[RunResult | None] = [None] * len(specs)
        # resolve every model up front (load errors surface immediately,
        # and two specs naming the same source share one handle).
        # Groups are keyed by handle *identity*, not by the spec.model
        # string: two model strings can alias one handle (a path token
        # and the loaded name, or an explicit alias), and the
        # one-worker-per-kernel safety invariant is per handle.
        handles: dict[str, ModelHandle] = {}
        groups: dict[int, list[int]] = {}
        group_handle: dict[int, ModelHandle] = {}
        for index, spec in enumerate(specs):
            handle = handles.get(spec.model)
            if handle is None:
                handle = handles[spec.model] = self._resolve(spec)
            key = id(handle)
            group_handle[key] = handle
            groups.setdefault(key, []).append(index)

        fingerprints: list[str | None] = [None] * len(specs)
        #: first exception a result callback raised (cancels the batch)
        callback_failure: list[BaseException] = []

        def deliver(index: int, outcome: RunResult) -> None:
            results[index] = outcome
            if store is not None and not outcome.cached:
                _store_write(store, fingerprints[index], outcome)
            if on_result is not None and not callback_failure:
                try:
                    on_result(index, outcome)
                except Exception as exc:
                    callback_failure.append(exc)

        def cancelled() -> bool:
            return bool(callback_failure)

        # warm pass: serve every fingerprintable spec that is already
        # in the store; only the misses go to the backend
        cold: dict[int, list[int]] = groups
        if store is not None:
            cold = {}
            model_docs: dict[int, object] = {}
            for key, indices in groups.items():
                handle = group_handle[key]
                if key not in model_docs:
                    model_docs[key] = _try_model_doc(handle)
                for index in indices:
                    fingerprint = None
                    if model_docs[key] is not None:
                        fingerprint = try_fingerprint(
                            handle.execution_model, specs[index],
                            model_document=model_docs[key])
                    fingerprints[index] = fingerprint
                    cached = None
                    if not cancelled():
                        cached = _store_lookup(store, fingerprint)
                    if cached is not None:
                        deliver(index, cached)
                    else:
                        cold.setdefault(key, []).append(index)

        tasks = [GroupTask(handle=group_handle[key], indices=indices,
                           specs=[specs[index] for index in indices])
                 for key, indices in cold.items()]
        execute_groups(tasks, backend=backend, workers=workers,
                       deliver=deliver, should_stop=cancelled)
        if callback_failure:
            raise callback_failure[0]
        return results  # type: ignore[return-value]


def _coerce_spec(spec) -> RunSpec:
    if isinstance(spec, RunSpec):
        return spec
    if isinstance(spec, str):
        return RunSpec.from_json(spec)
    return RunSpec.from_doc(spec)


def _coerce_store(store):
    """An ArtifactStore from an instance, a path, or None."""
    if store is None:
        return None
    from repro.farm import ArtifactStore
    if isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


def _try_model_doc(handle: ModelHandle):
    """The handle model's canonical serialization, or None when the
    model is not fingerprintable (then nothing on it is cached).

    Memoized on the handle: the full structural walk is O(model), and
    a session firing many runs at one handle would otherwise redo it
    per run. The memo key — event alphabet plus configuration — is a
    cheap summary that changes whenever the serialization could. The
    walk and the memo ride under the handle's ``exec_lock`` so two
    sessions sharing one warm handle never race on it."""
    from repro.farm import FingerprintError, model_doc
    lock = getattr(handle, "exec_lock", None)
    if lock is not None:
        lock.acquire()
    try:
        model = handle.execution_model
        key = (tuple(model.events), len(model.constraints),
               model.configuration())
        memo = getattr(handle, "_farm_doc_memo", None)
        if memo is not None and memo[0] == key:
            return memo[1]
        try:
            document = model_doc(model)
        except FingerprintError:
            document = None
        handle._farm_doc_memo = (key, document)
        return document
    finally:
        if lock is not None:
            lock.release()


def _store_lookup(store, fingerprint: str | None) -> RunResult | None:
    """A cached result for *fingerprint*, marked ``cached``, or None.

    A stored document that no longer parses as a result (written by an
    incompatible build, hand-edited) counts as a miss — recompute."""
    if store is None or fingerprint is None:
        return None
    document = store.get(fingerprint)
    if document is None:
        obs.count("store.misses")
        return None
    try:
        result = RunResult.from_doc(document)
    except (SerializationError, TypeError, ValueError):
        # a digest-consistent envelope can still hold a document that
        # is not a result (wrong container types, hand-edited) — e.g.
        # dict() over a list raises TypeError, not SerializationError
        obs.count("store.misses")
        return None
    obs.count("store.hits")
    result.cached = True
    return result


def _store_write(store, fingerprint: str | None, result: RunResult) -> None:
    """Write-through for a freshly computed result; errors are not
    artifacts (a transient failure must not be replayed forever).

    A failing write (disk full, permissions) is swallowed: the store is
    a pure accelerator and must never cost a computed result."""
    from repro.farm import StoreError
    if store is None or fingerprint is None or not result.ok:
        return
    try:
        store.put(fingerprint, result.to_doc())
    except StoreError:
        pass
