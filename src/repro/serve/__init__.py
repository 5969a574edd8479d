"""``repro.serve`` — the always-warm concurrent analysis service.

The offline toolchain pays the full model-compilation price (front-end
parse, weave, symbolic-kernel construction) on every process start.
This package keeps that state *resident*: a long-lived server holds
compiled kernels in a fingerprint-keyed LRU and answers analysis
requests from warm state, so steady-state latency is the analysis
itself, not the compile.

Wire protocol
-------------

The protocol *is* the canonical artifact layer — no new schema.

**Request** — ``POST /run`` with the batch document the CLI's
``repro batch`` already consumes::

    {
      "models": {"<name>": <model source doc>, ...},
      "runs":   [<RunSpec doc>, ...]
    }

Model source documents must be inline (the server never reads files on
a client's behalf, so ``path``, ``application_path`` and
``deployment_path`` are refused); each ``RunSpec.model`` must name a
key of ``models``. Names are request-local: the server caches by
fingerprint (SHA-256 of the source doc's canonical JSON), so the same
model under different names still shares one warm kernel. A result
names its model as the run does: a lint report's ``model`` is the
spec's ``model`` (the ``models`` key), never the name the description
gives the loaded model, which no fingerprint hashes. ``repro batch``
and ``repro submit`` load a document through the same
:func:`~repro.serve.client.run_local`, so all three paths give the
same bytes.

**Transport** — HTTP/1.1 with keep-alive: a client sends its next
request on the connection it already holds (:mod:`repro.serve.client`
keeps one per thread). A ``/run`` reply is a ``Transfer-Encoding:
chunked`` body, one NDJSON envelope per chunk. A request line that says
HTTP/1.0 gets the same envelopes unframed, ended by the server closing
the connection. Every answer sent before the request body was read
whole (a bad or oversized ``Content-Length``, a chunked request body,
an unreadable body, an unknown route) closes the connection, so an
unread body byte is never parsed as a next request.

**Response** — a stream of NDJSON envelopes, one per completed run, in
completion order::

    {"serve": 1, "index": <i>, "cached": <bool>, "result": <RunResult doc>}

terminated by a summary line::

    {"serve": 1, "done": true, "runs": N, "cached": H, "errors": E, "wall_s": S}

``result`` is the canonical ``RunResult`` document — **byte-identical**
to what an offline :class:`~repro.workbench.Workbench` produces for the
same (model, spec), regardless of worker count or cache temperature.
``cached`` and the envelope fields are transport metadata and never
enter the canonical document. A request rejected before execution
(malformed document, unknown model name, a model description that does
not load, a run document :data:`repro.workbench.artifacts.SCHEMA`
refuses, draining server) gets a JSON ``{"error": ...}`` body naming
the problem, with status 400 (or 503 while draining), and counts in
``requests_failed``.

``GET /healthz`` answers liveness (status, version, in-flight count);
``GET /metrics`` answers the full observability document (counters,
latency histograms with p50/p90/p99, cache hit rates, live BDD-node
gauges — see :mod:`repro.serve.metrics`). Its ``connections`` counter
counts the TCP connections the server accepted, so connection reuse
shows on a running server: one client thread sending ten requests
counts one.

Eviction and drain semantics
----------------------------

The model cache (:mod:`repro.serve.state`) is bounded two ways: entry
count (``--max-models``) and resident BDD-node total (``--max-nodes``).
Admission is single-flight — concurrent requests for one fingerprint
compile once. Eviction is LRU, calls ``clear_caches()`` to detach the
kernel (BDD managers become garbage once in-flight runs finish), and
never evicts under a running analysis — bounds may overshoot
transiently instead of deadlocking.

On SIGTERM/SIGINT the server **drains**: the listener stops accepting,
new ``/run`` requests get 503, idle kept-alive connections are closed at
once, in-flight requests run to completion and their handler threads
are joined, every kernel is evicted, and the final metrics snapshot is
logged. No request is ever killed mid-run. A client whose kept
connection a drain closed retries once on a fresh connection, which a
drained server refuses, so :func:`~repro.serve.client.submit_or_local`
runs the document locally.
"""

from repro.serve.client import (fetch_metrics, ping, run_local, submit,
                                submit_or_local)
from repro.serve.metrics import Metrics
from repro.serve.server import (PROTOCOL, AnalysisService, ReproServer,
                                serve, split_document)
from repro.serve.state import (CacheEntry, ModelCache, ServeError,
                               model_key, resident_nodes)

__all__ = [
    "PROTOCOL",
    "AnalysisService",
    "CacheEntry",
    "Metrics",
    "ModelCache",
    "ReproServer",
    "ServeError",
    "fetch_metrics",
    "model_key",
    "ping",
    "resident_nodes",
    "run_local",
    "serve",
    "split_document",
    "submit",
    "submit_or_local",
]
