"""Nested, thread-aware tracing spans with a zero-cost no-op default.

The tracer is a process-global switch: :func:`enable_tracing` installs
a :class:`Tracer` and from that point every :func:`span` call allocates
a real :class:`Span`; with no tracer installed (the default) the same
call returns one shared no-op singleton — no object is allocated, no
clock is read, no lock is taken, so instrumentation can sit on hot
engine paths permanently.

Span nesting follows the *logical* call tree, not the thread layout:
the current span rides a :class:`contextvars.ContextVar`, so a thread
pool that copies its submission context (``contextvars.copy_context``)
parents worker-thread spans under the span that submitted them. Process
workers cannot share a context; they run their own tracer and ship
serialized span trees back inside the result envelope, which the parent
re-roots with :meth:`Tracer.adopt` (see ``_worker_run_group``).

Span times are ``perf_counter`` seconds relative to the owning
tracer's epoch. Attach/adopt operations take the tracer lock; entering
and exiting a span on one thread does not contend with other threads
until the attach.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time

#: the installed tracer, or None (tracing disabled). Module-global on
#: purpose: the ``is None`` check is the entire disabled-mode cost.
_ACTIVE: "Tracer | None" = None

#: the innermost open span of the current logical context
_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


class Span:
    """One named, timed region of the execution, with children.

    Used as a context manager; :meth:`set` attaches attributes at any
    point between enter and exit (typically results known only at the
    end, like a frontier size or a verdict).
    """

    __slots__ = ("name", "attrs", "start", "end", "children", "tid",
                 "pid", "_tracer", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.tid = threading.get_ident()
        self.pid = tracer.pid
        self._tracer = tracer
        self._token = None

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self.start = time.perf_counter() - self._tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter() - self._tracer.epoch
        parent = _CURRENT.get()
        if parent is self:  # exiting in the context that entered
            _CURRENT.reset(self._token)
            parent = _CURRENT.get()
        self._tracer.attach(self, parent)
        return False

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_doc(self) -> dict:
        """A JSON-able tree (cross-process shipping, exports)."""
        return {"name": self.name, "start": self.start, "end": self.end,
                "tid": self.tid, "pid": self.pid, "attrs": self.attrs,
                "children": [child.to_doc() for child in self.children]}

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return (f"Span({self.name!r}, {self.duration * 1000:.3f}ms, "
                f"{len(self.children)} child(ren))")


class _NullSpan:
    """The shared disabled-mode span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Owner of one trace: an epoch, the root spans, the attach lock."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self.pid = os.getpid()
        self._lock = threading.Lock()

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return time.perf_counter() - self.epoch

    def attach(self, span: Span, parent: "Span | None") -> None:
        """File a finished span under *parent* (or as a root)."""
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    def spans(self):
        """Every recorded span, depth-first over the root forest."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def to_docs(self) -> list[dict]:
        with self._lock:
            roots = list(self.roots)
        return [root.to_doc() for root in roots]

    def adopt(self, docs: list[dict], offset: float = 0.0,
              pid: int | None = None) -> list[Span]:
        """Re-root serialized span trees (a process worker's) here.

        Trees are attached under the caller's current span — or as
        roots — *in the order given*, so a parent merging worker
        envelopes in submission order keeps the trace position-stable
        regardless of completion order. Times are re-based by *offset*
        (the parent-relative submission time of the shipped work);
        *pid* overrides the recorded process id (the worker's real pid
        keeps its spans on a separate track in trace viewers).
        """
        parent = _CURRENT.get()
        adopted = []
        for doc in docs:
            span = self._from_doc(doc, offset, pid)
            self.attach(span, parent)
            adopted.append(span)
        return adopted

    def _from_doc(self, doc: dict, offset: float,
                  pid: int | None) -> Span:
        span = Span(self, doc.get("name", "?"), dict(doc.get("attrs") or {}))
        span.start = float(doc.get("start", 0.0)) + offset
        span.end = float(doc.get("end", 0.0)) + offset
        span.tid = int(doc.get("tid", 0))
        span.pid = pid if pid is not None else int(doc.get("pid", 0))
        span.children = [self._from_doc(child, offset, pid)
                         for child in doc.get("children") or []]
        return span


def span(name: str, **attrs):
    """Open a named span under the current one (context manager).

    With tracing disabled this returns the shared no-op singleton:
    nothing is allocated. Keyword arguments become span attributes;
    keep them cheap to compute — they are evaluated at the call site
    whether tracing is on or not (guard expensive ones with
    :func:`tracing_active`).
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return Span(tracer, name, attrs)


def detach_context() -> None:
    """Drop the inherited current-span context in this thread.

    A forked process worker inherits the submitting process's context —
    including its open span — so spans recorded in the worker would
    attach to a stale *copy* of the parent's tree instead of rooting in
    the worker's own tracer. Call this once at worker entry (see
    ``_worker_run_group``) so the worker's spans start a fresh forest.
    """
    _CURRENT.set(None)


def tracing_active() -> bool:
    """True when a tracer is installed (guard for expensive attrs)."""
    return _ACTIVE is not None


def current_tracer() -> Tracer | None:
    return _ACTIVE


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the process-global tracer."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def disable_tracing() -> Tracer | None:
    """Uninstall the tracer; returns it (for export) or None."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


class capture:
    """Context manager: ensure a tracer is active for the block.

    Yields the active tracer. If one was already installed (an outer
    ``repro profile`` wrapping an inner ``--trace``), it is reused and
    left installed on exit; otherwise a fresh tracer is installed and
    uninstalled at the end. Either way the block's spans land in the
    yielded tracer.
    """

    def __init__(self):
        self.tracer: Tracer | None = None
        self._owned = False

    def __enter__(self) -> Tracer:
        self.tracer = _ACTIVE
        if self.tracer is None:
            self.tracer = enable_tracing()
            self._owned = True
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._owned:
            disable_tracing()
        return False
