"""The always-warm analysis server.

Two layers, deliberately separable:

* :class:`AnalysisService` — the transport-independent core. It owns
  the warm :class:`~repro.serve.state.ModelCache`, the shared
  :class:`~repro.farm.store.ArtifactStore`, a
  :class:`~repro.serve.metrics.Metrics` registry and the admission
  semaphore (``workers`` concurrent requests; extras queue). One
  request document in, a stream of result envelopes out — tests and
  the soak suite drive this layer directly, no sockets involved.
* :class:`ReproServer` + :func:`serve` — a threaded stdlib HTTP/1.1
  front-end (``http.server.ThreadingHTTPServer``; no third-party
  dependencies) exposing ``POST /run``, ``GET /healthz`` and
  ``GET /metrics`` on kept-alive connections, with graceful drain on
  SIGTERM.

The wire protocol is the batch document the offline toolchain already
speaks (see :mod:`repro.serve`): request bodies are
``{"models": {...}, "runs": [...]}``, response streams are NDJSON
envelopes around canonical ``RunResult`` documents. Model source
documents must be inline — the server never reads model files off its
own disk on a request's behalf.

The transport trusts no client with its threads or memory. A ``POST
/run`` whose ``Content-Length`` is negative or not an integer, or that
sends a ``Transfer-Encoding`` instead, is answered 400 (411), and one
declaring more than :data:`MAX_BODY_BYTES` is answered 413, all before
any body byte is read. Every answer sent before the request body was
read whole closes the connection, so no unread body byte is ever parsed
as a next request. Every connection carries a 600 s socket timeout
(``_Handler.timeout``), so a client that stalls mid-body is answered
400 and cannot pin a handler thread forever, and an idle kept-alive
connection holds its handler thread for at most that long. A drain
closes idle connections at once and waits only on requests in flight.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import repro
from repro import obs
from repro.farm.fingerprint import canonical_json
from repro.serve.metrics import Metrics
from repro.serve.state import ModelCache, ServeError

#: NDJSON envelope format version (transport framing, never part of
#: the canonical result documents it carries)
PROTOCOL = 1

#: the largest request body ``POST /run`` accepts (a larger declared
#: ``Content-Length`` is answered 413 before anything is read)
MAX_BODY_BYTES = 64 * 1024 * 1024


def split_document(document) -> tuple[dict, list]:
    """``(models, runs)`` from a request/batch document.

    Accepts the batch-file shape — ``{"models": {name: source_doc},
    "runs": [spec_doc, ...]}`` — or a bare list of spec docs (then
    *models* is empty). Raises :class:`ServeError` on anything else.
    """
    if isinstance(document, list):
        return {}, list(document)
    if not isinstance(document, dict):
        raise ServeError(
            "a request document must be a JSON object with 'models' "
            "and 'runs', or a bare list of run specs")
    models = document.get("models", {})
    runs = document.get("runs", [])
    if not isinstance(models, dict) or not isinstance(runs, list):
        raise ServeError(
            "'models' must be an object and 'runs' a list")
    return models, runs


class AnalysisService:
    """The shared, long-lived core every request dispatches onto."""

    def __init__(self, store=None, max_models: int = 8,
                 max_nodes: int | None = None, workers: int = 4,
                 metrics: Metrics | None = None, loader=None):
        from repro.workbench.session import _coerce_store
        self.metrics = metrics or Metrics()
        self.cache = ModelCache(max_models=max_models,
                                max_nodes=max_nodes,
                                metrics=self.metrics, loader=loader)
        self.store = _coerce_store(store)
        self.workers = max(1, int(workers))
        self._slots = threading.BoundedSemaphore(self.workers)
        self._draining = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self.metrics.register_gauge("models_cached",
                                    lambda: len(self.cache))
        self.metrics.register_gauge("resident_bdd_nodes",
                                    self.cache.node_total)
        if self.store is not None:
            self.metrics.register_gauge(
                "store_entries",
                lambda: self.store.stats()["entries"])

    # -- request handling --------------------------------------------------

    def handle_request(self, document, emit) -> dict:
        """Execute one request document, streaming result envelopes.

        *emit* is called once per completed run with an envelope dict
        ``{"serve": 1, "index": i, "cached": bool, "result": doc}`` —
        ``doc`` is the canonical ``RunResult`` document, byte-identical
        to what an offline :class:`~repro.workbench.Workbench` produces
        for the same (model, spec). Returns the summary envelope (also
        the last thing a transport should send).

        Raises :class:`ServeError` before anything is emitted when the
        document itself is unusable (malformed, unknown model names,
        draining) — transports can still answer with a clean status.
        """
        if self._draining.is_set():
            raise ServeError("server is draining; resubmit elsewhere",
                             status=503)
        from repro.workbench.artifacts import RunSpec
        from repro.workbench.session import Workbench

        models, runs = split_document(document)
        if not runs:
            raise ServeError("the request document defines no runs")
        specs = []
        for position, doc in enumerate(runs):
            try:
                specs.append(RunSpec.from_doc(doc))
            except repro.errors.ReproError as exc:
                raise ServeError(
                    f"run {position} is not a valid spec: {exc}") from exc
        known = set(models)
        missing = sorted({spec.model for spec in specs} - known)
        if missing:
            raise ServeError(
                f"run spec(s) reference model(s) {missing} not defined "
                f"in the request's 'models' section (the server only "
                f"loads inline source documents, never paths)")

        with self._slots, obs.span("serve.request", runs=len(specs)):
            with self._inflight_lock:
                self._inflight += 1
            started = time.perf_counter()
            try:
                return self._execute(models, specs, emit, started)
            finally:
                self.metrics.observe(
                    "request_s", time.perf_counter() - started)
                self.metrics.count("requests")
                with self._inflight_lock:
                    self._inflight -= 1

    def _execute(self, models: dict, specs: list, emit,
                 started: float) -> dict:
        from repro.workbench.session import Workbench
        # admission: one warm entry per distinct model fingerprint,
        # built single-flight across concurrent requests
        workbench = Workbench(store=self.store)
        for name, source_doc in models.items():
            entry = self.cache.acquire(source_doc)
            workbench.attach(name, entry.handle)

        errors = 0
        hits = 0
        last_mark = [started]

        def stream(index: int, result) -> None:
            nonlocal errors, hits
            now = time.perf_counter()
            self.metrics.observe("run_s", now - last_mark[0])
            last_mark[0] = now
            self.metrics.count("runs")
            if not result.ok:
                errors += 1
                self.metrics.count("run_errors")
            if result.cached:
                hits += 1
                self.metrics.count("store_hits")
            else:
                self.metrics.count("store_misses")
            emit({"serve": PROTOCOL, "index": index,
                  "cached": result.cached, "result": result.to_doc()})

        # serial within the request: results stream deterministically,
        # and cross-request concurrency (the transport's threads, up to
        # ``workers`` deep) is what actually uses the machine
        workbench.run_many(specs, backend="serial", on_result=stream)
        return {"serve": PROTOCOL, "done": True, "runs": len(specs),
                "cached": hits, "errors": errors,
                "wall_s": round(time.perf_counter() - started, 6)}

    # -- introspection -----------------------------------------------------

    def healthz(self) -> dict:
        with self._inflight_lock:
            inflight = self._inflight
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.metrics.started, 3),
            "models_cached": len(self.cache),
            "inflight": inflight,
            "workers": self.workers,
        }

    def metrics_doc(self) -> dict:
        from repro.engine.encodability import COUNTERS
        doc = self.metrics.snapshot()
        doc["model_cache"] = self.cache.telemetry()
        doc["encodability"] = {
            name: obs.GLOBAL.counter(f"encodability.{name}")
            for name in COUNTERS}
        if self.store is not None:
            doc["store"] = self.store.stats()
        return doc

    # -- lifecycle ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new requests; in-flight ones run to completion."""
        self._draining.set()

    def drained(self) -> bool:
        with self._inflight_lock:
            return self._inflight == 0

    def close(self) -> dict:
        """Final teardown: evict every kernel, return the drain report
        (the metrics snapshot callers should log)."""
        report = self.metrics_doc()
        report["evicted_on_close"] = self.cache.evict_all()
        return report


# ---------------------------------------------------------------------------
# the HTTP transport
# ---------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1: a connection is kept alive between requests, and a
    # ``/run`` stream is a chunked body, one NDJSON envelope per chunk;
    # an HTTP/1.0 request gets a stream that ends when the connection
    # closes
    protocol_version = "HTTP/1.1"
    #: the version a request line the server cannot parse is answered
    #: under: the stdlib's HTTP/0.9 default sends its error page with no
    #: status line
    default_request_version = "HTTP/1.0"
    server_version = f"repro-serve/{repro.__version__}"
    #: per-connection socket timeout (``StreamRequestHandler.setup``
    #: applies it) so a stalled client or an idle kept-alive connection
    #: cannot pin a handler thread, and the drain joining it, forever
    timeout = 600
    #: TCP_NODELAY: without it each reply on a kept-alive connection
    #: waits out the client's delayed ACK
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self) -> AnalysisService:
        return self.server.service

    def setup(self):
        super().setup()
        self.service.metrics.count("connections")

    def handle(self):
        # the stdlib loop, except that the wait for each request line
        # is one a drain can cut short
        self.close_connection = False
        while not self.close_connection and \
                self.server._await_request(self):
            self.handle_one_request()

    def _send_json(self, status: int, document: dict,
                   close: bool = False) -> None:
        payload = (canonical_json(document) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if close:  # sets ``close_connection``
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _refuse(self, status: int, message: str) -> None:
        """Answer a ``POST /run`` whose body was not read whole, and
        close the connection: its unread bytes are no next request."""
        self.service.metrics.count("requests_failed")
        self._send_json(status, {"error": message}, close=True)

    def do_GET(self):
        # a GET that declares a body is answered without reading it
        close = "Content-Length" in self.headers or \
            "Transfer-Encoding" in self.headers
        if self.path == "/healthz":
            self._send_json(200, self.service.healthz(), close)
        elif self.path == "/metrics":
            self._send_json(200, self.service.metrics_doc(), close)
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"},
                            close)

    def do_POST(self):
        if self.path != "/run":
            self._send_json(404, {"error": f"no route {self.path!r}"},
                            close=True)
            return
        if "Transfer-Encoding" in self.headers:
            self._refuse(411, "a request body needs a Content-Length")
            return
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._refuse(400, f"bad Content-Length {declared!r}")
            return
        if length > MAX_BODY_BYTES:
            self._refuse(413, f"request body of {length} bytes exceeds "
                              f"the {MAX_BODY_BYTES}-byte limit")
            return
        try:
            document = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, OSError) as exc:  # a timeout is an OSError
            self._refuse(400, f"unreadable request: {exc}")
            return

        chunked = self.request_version != "HTTP/1.0"
        headers_sent = False

        def emit(envelope: dict, last: bool = False) -> None:
            nonlocal headers_sent
            line = (canonical_json(envelope) + "\n").encode("utf-8")
            if chunked:
                line = b"%x\r\n%s\r\n%s" % (len(line), line,
                                             b"0\r\n\r\n" if last else b"")
            if not headers_sent:
                self.send_response(200)
                self.send_header("Content-Type",
                                 "application/x-ndjson")
                if chunked:
                    self.send_header("Transfer-Encoding", "chunked")
                else:  # the stream ends when the connection does
                    self.send_header("Connection", "close")
                self.end_headers()
                headers_sent = True
            self.wfile.write(line)

        try:
            summary = self.service.handle_request(document, emit)
        except repro.errors.ReproError as exc:
            # answer, don't crash the handler thread: a ServeError
            # (malformed request, draining) with the status it carries,
            # and anything a bad model document raises while loading
            # (FrontendError and friends) with 400
            self.service.metrics.count("requests_failed")
            status = exc.status if isinstance(exc, ServeError) else 400
            if headers_sent:  # too late for a status line
                emit({"serve": PROTOCOL, "error": str(exc)}, last=True)
            else:
                self._send_json(status, {"error": str(exc)})
            return
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            self.service.metrics.count("requests_failed")
            self.close_connection = True
            return  # client went away or stalled mid-stream
        emit(summary, last=True)


class ReproServer(ThreadingHTTPServer):
    """The threaded HTTP server owning one :class:`AnalysisService`.

    ``daemon_threads`` stays False and ``block_on_close`` True — the
    stdlib then *joins* every in-flight handler thread during
    ``server_close()``, which is exactly the drain semantics we want.
    A handler thread lives as long as its connection; :meth:`drain`
    closes the idle ones first, so the join waits only on requests in
    flight.
    """

    daemon_threads = False
    block_on_close = True

    def __init__(self, address, service: AnalysisService,
                 verbose: bool = False):
        self.service = service
        self.verbose = verbose
        self._serve_thread: threading.Thread | None = None
        #: sockets whose handler waits for a request line, and whether
        #: a drain has closed them (no handler waits after that)
        self._idle: set[socket.socket] = set()
        self._idle_lock = threading.Lock()
        self._closing = False
        super().__init__(address, _Handler)

    def _await_request(self, handler: _Handler) -> bool:
        """Wait for the first byte of *handler*'s next request. False
        when the client closed, the socket timeout ran out or a drain
        closed the idle connection."""
        connection = handler.connection
        with self._idle_lock:
            if self._closing:
                return False
            self._idle.add(connection)
        try:
            arrived = bool(handler.rfile.peek(1))
        except OSError:  # the socket timeout, a reset
            arrived = False
        with self._idle_lock:
            if connection not in self._idle:  # a drain closed it
                return False
            self._idle.discard(connection)
        return arrived

    def _close_idle(self) -> None:
        with self._idle_lock:
            self._closing = True
            for connection in self._idle:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the client closed it first
            self._idle.clear()

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ReproServer":
        """Serve on a background thread (tests, selftest, benches)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05},
            name="repro-serve", daemon=True)
        self._serve_thread.start()
        return self

    def drain(self) -> dict:
        """Graceful stop: refuse new work, close idle connections,
        finish in-flight requests, join handler threads, release
        kernels. Returns the drain-time metrics report."""
        self.service.begin_drain()
        self.shutdown()           # stops the accept loop
        self._close_idle()        # their handler threads return now
        self.server_close()       # joins in-flight handler threads
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=30)
        return self.service.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.drain()


def serve(host: str = "127.0.0.1", port: int = 0, store=None,
          max_models: int = 8, max_nodes: int | None = None,
          workers: int = 4, verbose: bool = False,
          loader=None) -> ReproServer:
    """Build a :class:`ReproServer` bound to *host*:*port* (0 picks an
    ephemeral port). The caller starts it — ``serve(...).start()`` for
    a background thread or ``serve_forever()`` to block."""
    service = AnalysisService(store=store, max_models=max_models,
                              max_nodes=max_nodes, workers=workers,
                              loader=loader)
    return ReproServer((host, port), service, verbose=verbose)
