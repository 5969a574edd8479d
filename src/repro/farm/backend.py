"""Execution backends for the batch runner.

:func:`execute_groups` runs per-model groups of run specs through one
of two backends behind a single contract — *results are byte-
identical regardless of backend and worker count*:

* ``"serial"`` — the groups run one after another in the caller's
  thread, sharing every warm kernel. The default, the baseline, and
  the fallback the process backend must match. (Threads would add
  nothing: the GIL serializes the pure-Python BDD/BFS work.)
* ``"process"`` — groups fan out over a :class:`ProcessPoolExecutor`.
  Each worker *rebuilds* its model from the handle's declarative
  ``source_doc`` (models are never pickled — constraint runtimes carry
  compiled state that must not cross process boundaries) and returns
  canonical result JSON; the parent merges by input position, so the
  outcome is independent of scheduling. Groups whose handle has no
  ``source_doc`` (programmatic builders, bare execution models) cannot
  be shipped and run in the parent instead — correctness first, the
  cores pick up the shippable groups meanwhile.

The group, not the spec, is the unit of dispatch: all runs on one model
share that model's symbolic kernel (parent) or rebuilt model (worker),
and a kernel is only ever touched by one worker at a time.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.errors import ReproError

#: the run_many backends, in documentation order
BACKENDS = ("serial", "process")


class BackendError(ReproError):
    """Unknown backend name."""


@dataclass
class GroupTask:
    """One model's slice of a batch: the handle plus (position, spec)
    pairs in input order."""

    handle: object
    indices: list[int]
    specs: list[object]

    def shippable(self) -> bool:
        return getattr(self.handle, "source_doc", None) is not None


def execute_groups(groups: list[GroupTask], backend: str, workers: int,
                   deliver: Callable[[int, object], None],
                   should_stop: Callable[[], bool] | None = None) -> None:
    """Run every group's specs, calling ``deliver(position, result)``
    for each outcome, always from the calling thread; delivery order is
    unspecified, positions are the input order. *should_stop* (optional,
    polled between specs) requests cooperative cancellation: remaining
    specs are skipped and their positions never delivered — the batch
    runner uses it to unwind cleanly when a result callback raises."""
    if backend not in BACKENDS:
        raise BackendError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    if not groups:
        return
    if backend == "process" and workers > 1:
        _run_process(groups, workers, deliver, should_stop)
    else:
        for group in groups:
            _run_group_local(group, deliver, should_stop)


def _run_group_local(group: GroupTask,
                     deliver: Callable[[int, object], None],
                     should_stop: Callable[[], bool] | None = None) -> None:
    from repro.workbench.session import execute
    # the handle's exec_lock (when it has one) makes the group the unit
    # of mutual exclusion: all runs on one model share its symbolic
    # kernel, whose caches are not thread-safe — one group at a time,
    # even when several run_many calls race on a shared workbench
    lock = getattr(group.handle, "exec_lock", None)
    if lock is not None:
        lock.acquire()
    try:
        with obs.span("farm.group",
                      model=getattr(group.handle, "name", None),
                      runs=len(group.specs)):
            for index, spec in zip(group.indices, group.specs):
                if should_stop is not None and should_stop():
                    return
                deliver(index, execute(spec, group.handle))
    finally:
        if lock is not None:
            lock.release()


# ---------------------------------------------------------------------------
# the process backend
# ---------------------------------------------------------------------------

def _split_for_shipping(groups):
    """((group, payload) shippable list, local group list) partition.

    A group ships only if its handle has a source doc, and within such
    a group only the specs that serialize ship — an unserializable spec
    (a bare policy instance) must yield its per-spec error result like
    every other backend, not abort the batch from the payload builder.
    The payload is built during the serializability probe, so each spec
    doc is computed exactly once.
    """
    shippable, local = [], []
    for group in groups:
        if not group.shippable():
            local.append(group)
            continue
        runs, bad_idx, bad_specs = [], [], []
        for index, spec in zip(group.indices, group.specs):
            try:
                runs.append({"index": index, "spec": spec.to_doc()})
            except ReproError:
                bad_idx.append(index)
                bad_specs.append(spec)
        if runs:
            payload = json.dumps({"name": group.handle.name,
                                  "source": group.handle.source_doc,
                                  "runs": runs})
            shippable.append((group, payload))
        if bad_idx:
            local.append(GroupTask(handle=group.handle, indices=bad_idx,
                                   specs=bad_specs))
    return shippable, local


def _run_process(groups, workers, deliver, should_stop=None) -> None:
    shippable, local = _split_for_shipping(groups)
    if not shippable or (len(shippable) == 1 and not local):
        # nothing to parallelize: a lone group runs sequentially on its
        # kernel either way, so skip the fork + rebuild + JSON round
        # trip and keep streaming prompt
        for group, _payload in shippable:
            _run_group_local(group, deliver, should_stop)
        for group in local:
            _run_group_local(group, deliver, should_stop)
        return
    from repro.workbench.artifacts import RunResult
    tracer = obs.current_tracer()
    pool = ProcessPoolExecutor(max_workers=min(workers, len(shippable)))
    try:
        # the submit timestamp (parent clock) rebases each worker's
        # span tree when it is adopted back — workers time against
        # their own epoch, which starts roughly at submission
        futures = [(group,
                    tracer.now() if tracer is not None else 0.0,
                    pool.submit(_worker_run_group, payload,
                                tracer is not None))
                   for group, payload in shippable]
        # the parent is idle while workers compute: run the unshippable
        # groups (and their kernels stay parent-side, warm) meanwhile
        for group in local:
            _run_group_local(group, deliver, should_stop)
        for group, submitted_at, future in futures:
            if should_stop is not None and should_stop():
                # cancellation: skip the remaining merges (in-flight
                # workers finish on their own; nothing is delivered)
                future.cancel()
                continue
            try:
                returned = future.result()
            except Exception as exc:
                # a broken worker (OOM kill, import mismatch) must not
                # lose results: recompute the group in the parent — but
                # audibly, or systematic breakage looks like a slow
                # success
                warnings.warn(
                    f"process-backend worker failed for model "
                    f"{group.handle.name!r} "
                    f"({type(exc).__name__}: {exc}); recomputing the "
                    f"group in the parent", RuntimeWarning,
                    stacklevel=2)
                _run_group_local(group, deliver, should_stop)
                continue
            if isinstance(returned, dict):
                # traced envelope: re-root the worker's span trees under
                # the parent's current span. Merging happens here, in
                # submission order, so adopted trees are position-stable
                # regardless of which worker finished first.
                if tracer is not None and returned.get("spans"):
                    tracer.adopt(returned["spans"], offset=submitted_at,
                                 pid=returned.get("pid"))
                returned = returned["results"]
            for index, result_json in returned:
                deliver(index, RunResult.from_json(result_json))
    finally:
        pool.shutdown(wait=True)


def _worker_run_group(payload: str, trace: bool = False):
    """Process-pool entry point: rebuild the model, run the specs.

    Returns ``(position, canonical result JSON)`` pairs — JSON, not
    pickled results, so the merge in the parent is exactly the
    serialization the store and the CLI emit. With *trace* the pairs
    travel inside a ``{"results", "spans", "pid"}`` envelope: the
    worker runs its own tracer and ships the serialized span trees so
    the parent can re-root them into its trace (result JSON itself is
    identical either way — telemetry stays out-of-band).
    """
    import os

    from repro.workbench.artifacts import RunSpec
    from repro.workbench.frontends import load_doc
    from repro.workbench.session import execute

    worker_tracer = obs.enable_tracing() if trace else None
    # under the fork start method this worker inherited the parent's
    # span context; detach it so our spans root in the worker tracer
    obs.detach_context()
    try:
        document = json.loads(payload)
        with obs.span("farm.worker", model=document["name"],
                      runs=len(document["runs"])):
            handle = load_doc(document["source"], name=document["name"])
            out: list[tuple[int, str]] = []
            for run in document["runs"]:
                spec = RunSpec.from_doc(run["spec"])
                out.append((run["index"],
                            execute(spec, handle).to_json()))
    finally:
        if worker_tracer is not None:
            obs.disable_tracing()
    if worker_tracer is None:
        return out
    return {"results": out, "spans": worker_tracer.to_docs(),
            "pid": os.getpid()}
