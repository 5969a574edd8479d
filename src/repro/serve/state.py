"""Session state for the analysis server: the warm model cache.

A long-lived server's entire speed advantage is resident state: parsed
front-ends, woven execution models and — above all — compiled
:class:`~repro.engine.execution_model.SymbolicKernel` instances (BDD
managers, transition relations, explored spaces). :class:`ModelCache`
keeps that state keyed by **model fingerprint** — the SHA-256 of the
model source document's canonical JSON (the same
:func:`repro.farm.fingerprint.canonical_json` the artifact store
hashes), so two requests shipping structurally identical model docs
share one kernel no matter what request-local names they use.

Admission control is **single-flight**: when N requests race on a model
that is not resident, exactly one thread builds it (front-end parse +
weave) while the others wait on the build and then share the result —
a thundering herd compiles once, not N times.

Eviction is a two-bound LRU: ``max_models`` caps the entry count and
``max_nodes`` caps the *resident BDD-node total* across every cached
kernel (measured through ``SymbolicKernel.cache_sizes()`` and
:meth:`~repro.engine.execution_model.SymbolicKernel.engine_telemetry`,
so heavyweight transition relations count). Evicting an entry calls
``clear_caches()`` on its execution model, detaching the kernel so the
BDD managers become garbage the moment in-flight runs complete; an
entry whose ``exec_lock`` is held (a run in progress) is skipped and
the next-least-recent candidate goes instead — eviction never blocks
behind, or deadlocks with, an analysis.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.farm.fingerprint import canonical_json


class ServeError(ReproError):
    """A request document the service cannot honor, with the HTTP
    *status* it is answered with: 400 (the document's fault) unless the
    raiser says otherwise — 503 for a draining server's refusal."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def model_key(source_doc: dict) -> str:
    """The cache fingerprint of a model source document."""
    try:
        payload = canonical_json(source_doc)
    except (TypeError, ValueError) as exc:
        raise ServeError(
            f"model source document is not canonical JSON: {exc}") from exc
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def resident_nodes(handle) -> int:
    """The BDD nodes currently resident for *handle*'s kernel: the
    step-formula manager plus every cached transition system's manager.
    Zero when no kernel was ever materialized — measuring must not
    allocate one."""
    model = handle.execution_model
    kernel = getattr(model, "_kernel", None)
    if kernel is None:
        return 0
    total = kernel.cache_sizes()["bdd_nodes"]
    telemetry = kernel.engine_telemetry()
    if telemetry is not None:
        total += sum(record["bdd_nodes"]
                     for record in telemetry["systems"])
    return total


@dataclass
class CacheEntry:
    """One resident model: the warm handle plus bookkeeping."""

    key: str
    handle: object
    compile_s: float
    built_at: float = field(default_factory=time.time)
    last_used: float = field(default_factory=time.time)
    hits: int = 0
    _last_nodes: int = 0

    def nodes(self) -> int:
        try:
            self._last_nodes = resident_nodes(self.handle)
        except RuntimeError:
            # a run on another thread mutated a kernel cache mid-walk;
            # the gauge is advisory, so serve the last known value
            pass
        return self._last_nodes

    def describe(self) -> dict:
        return {
            "key": self.key[:16],
            "name": getattr(self.handle, "name", "?"),
            "hits": self.hits,
            "compile_s": round(self.compile_s, 6),
            "age_s": round(time.time() - self.built_at, 3),
            "idle_s": round(time.time() - self.last_used, 3),
            "bdd_nodes": self.nodes(),
        }


class _Pending:
    """Single-flight rendezvous for one in-progress model build."""

    __slots__ = ("event", "entry", "error")

    def __init__(self):
        self.event = threading.Event()
        self.entry: CacheEntry | None = None
        self.error: BaseException | None = None


def _default_loader(source_doc: dict):
    """Load an inline model description; one naming a file is refused,
    since the server never reads its own disk for a request."""
    from repro.workbench.frontends import PATH_FIELDS, load_doc
    paths = [key for key in PATH_FIELDS
             if isinstance(source_doc, dict) and key in source_doc]
    if paths:
        raise ServeError(
            f"model description field(s) {paths} name a file; the "
            f"server loads inline sources only (use the *text fields)")
    return load_doc(source_doc)


class ModelCache:
    """Fingerprint-keyed LRU of warm model handles (thread-safe).

    *max_models* bounds the entry count (>= 1), *max_nodes* — optional
    — bounds the resident BDD-node total; *metrics* (a
    :class:`~repro.serve.metrics.Metrics`) receives hit/miss/compile/
    eviction counters and compile latencies when given. *loader* maps a
    model source document to a
    :class:`~repro.workbench.frontends.ModelHandle` (injectable for
    tests); the default goes through the front-end registry.
    """

    def __init__(self, max_models: int = 8, max_nodes: int | None = None,
                 metrics=None, loader=None):
        self.max_models = max(1, int(max_models))
        self.max_nodes = max_nodes if max_nodes is None \
            else max(1, int(max_nodes))
        self.metrics = metrics
        self._loader = loader or _default_loader
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._pending: dict[str, _Pending] = {}
        self.evictions = 0

    # -- acquisition -------------------------------------------------------

    def acquire(self, source_doc: dict) -> CacheEntry:
        """The resident entry for *source_doc*, building it if needed.

        Concurrent callers for one fingerprint share a single build
        (single-flight); a failed build raises in every waiter and
        leaves no residue, so the next request retries cleanly.
        """
        key = model_key(source_doc)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.hits += 1
                entry.last_used = time.time()
                self._count("model_cache_hits")
                return entry
            pending = self._pending.get(key)
            if pending is None:
                pending = self._pending[key] = _Pending()
                i_build = True
            else:
                i_build = False
        if not i_build:
            pending.event.wait()
            if pending.error is not None:
                raise pending.error
            # sharing the in-flight build counts as a warm hit: the
            # kernel compiled once for the whole herd
            self._count("model_cache_hits")
            with self._lock:
                entry = pending.entry
                entry.hits += 1
                entry.last_used = time.time()
            return entry
        return self._build(key, source_doc, pending)

    def _build(self, key: str, source_doc: dict,
               pending: _Pending) -> CacheEntry:
        self._count("model_cache_misses")
        started = time.perf_counter()
        try:
            handle = self._loader(source_doc)
            entry = CacheEntry(key=key, handle=handle,
                               compile_s=time.perf_counter() - started)
        except BaseException as exc:
            # any failure must wake single-flight waiters, or they
            # block forever on an event nobody will ever set
            pending.error = exc
            with self._lock:
                self._pending.pop(key, None)
            pending.event.set()
            raise
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._pending.pop(key, None)
            pending.entry = entry
            self._enforce_limits_locked(protect=key)
        pending.event.set()
        self._count("model_compiles")
        if self.metrics is not None:
            self.metrics.observe("compile_s", entry.compile_s)
        return entry

    # -- eviction ----------------------------------------------------------

    def _enforce_limits_locked(self, protect: str | None = None) -> None:
        """Evict LRU entries until both bounds hold (caller holds the
        lock). Entries whose handle is mid-run (``exec_lock`` held) and
        the *protect* key (the entry just admitted) are skipped — the
        bounds may overshoot transiently rather than block or starve
        the admitting request."""
        def over_budget() -> bool:
            if len(self._entries) > self.max_models:
                return True
            if self.max_nodes is not None:
                total = sum(entry.nodes()
                            for entry in self._entries.values())
                return total > self.max_nodes
            return False

        while over_budget():
            victim = None
            for key, entry in self._entries.items():  # oldest first
                if key == protect:
                    continue
                lock = getattr(entry.handle, "exec_lock", None)
                if lock is not None and not lock.acquire(blocking=False):
                    continue  # mid-run: never evict under a runner
                try:
                    victim = key
                finally:
                    if lock is not None:
                        lock.release()
                break
            if victim is None:
                return  # everything evictable is busy: overshoot
            entry = self._entries.pop(victim)
            # detach the kernel so its BDD managers become garbage as
            # soon as the last in-flight clone drops its reference
            entry.handle.execution_model.clear_caches()
            self.evictions += 1
            self._count("model_evictions")

    def evict_all(self) -> int:
        """Drop every entry (drain/shutdown); returns how many."""
        with self._lock:
            victims = list(self._entries.values())
            self._entries.clear()
        for entry in victims:
            entry.handle.execution_model.clear_caches()
        self.evictions += len(victims)
        return len(victims)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def node_total(self) -> int:
        with self._lock:
            entries = list(self._entries.values())
        return sum(entry.nodes() for entry in entries)

    def telemetry(self) -> dict:
        with self._lock:
            entries = list(self._entries.values())
        return {
            "models": len(entries),
            "max_models": self.max_models,
            "max_nodes": self.max_nodes,
            "resident_nodes": sum(entry.nodes() for entry in entries),
            "evictions": self.evictions,
            "entries": [entry.describe() for entry in entries],
        }

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)
