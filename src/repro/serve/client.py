"""Client for the analysis server — and its offline twin.

:func:`submit` posts a batch document to a running server and parses
the NDJSON stream back into :class:`~repro.workbench.artifacts.RunResult`
objects; :func:`run_local` executes the *same* document through an
in-process :class:`~repro.workbench.Workbench`; and
:func:`submit_or_local` ties them together — try the server, fall back
to local execution when no server is reachable. Because results are
canonical documents on both paths, callers cannot tell (byte-wise)
where an analysis ran.

Everything here is stdlib-only (``http.client``), matching the server
side. Each thread keeps one HTTP/1.1 connection, to the server it used
last, and sends its next request there; a call's *timeout* applies to
that call. A connection whose request failed at any point is closed,
never reused. A kept connection the server closed before answering (an
idle timeout, a drain, a restart) is retried once on a fresh one: a run
is a pure function of its document, and a store write is idempotent.
"""

from __future__ import annotations

import http.client
import json
import os
import threading

from repro.serve.state import ServeError

#: per thread, ``(address, connection)`` of the kept connection; a call
#: takes it out and puts it back only once its response was read whole
_kept = threading.local()


class _Connection(http.client.HTTPConnection):
    """A connection that closes itself once dropped, as a thread's kept
    one is when the thread ends."""

    def __del__(self):
        self.close()


def _split(server: str) -> tuple[str, str]:
    """``(host:port, path prefix)`` of a server base URL
    (``host:port`` or ``http://host:port[/prefix]``)."""
    address, _, prefix = server.split("://", 1)[-1].partition("/")
    return address, ("/" + prefix).rstrip("/")


def _take(address: str) -> _Connection | None:
    """This thread's kept connection if it goes to *address*; one to
    another server is dropped, which closes it."""
    held, _kept.held = getattr(_kept, "held", None), None
    return held[1] if held and held[0] == address else None


def _call(server: str, method: str, path: str, body: bytes | None,
          timeout: float | None, read):
    """Send one request to *server* on this thread's kept connection
    and return ``read(response)``. Transport failures raise ``OSError``;
    a reply ``http.client`` cannot parse raises :class:`ServeError`."""
    address, prefix = _split(server)
    headers = {"Content-Type": "application/json"} if body else {}
    connection = _take(address)
    kept = False
    try:
        while True:
            fresh = connection is None
            if fresh:
                connection = _Connection(address, timeout=timeout)
            else:
                connection.sock.settimeout(timeout)
            try:
                connection.request(method, prefix + path, body=body,
                                   headers=headers)
                response = connection.getresponse()
                break
            except ConnectionError:
                if fresh:
                    raise
                # closed before any response byte: one fresh retry
                connection.close()
                connection = None
        value = read(response)
        kept = True
    except OSError:  # RemoteDisconnected is an HTTPException too
        raise
    except http.client.HTTPException as exc:
        raise ServeError(f"unreadable reply from {server}: "
                         f"{exc!r}") from exc
    finally:
        if kept and connection.sock:
            _kept.held = (address, connection)
        elif connection is not None:
            connection.close()
    return value


def _lines(response):
    """The complete lines of a streamed *response*, up to its end or to
    the point where the connection was cut."""
    try:
        for line in response:
            if not line.endswith(b"\n"):
                return
            yield line
    except http.client.IncompleteRead:
        return


def _get_json(server: str, path: str, timeout: float) -> dict:
    def read(response) -> dict:
        payload = response.read()
        if response.status != 200:
            raise ServeError(f"GET {path} answered {response.status}",
                             status=response.status)
        return json.loads(payload.decode("utf-8"))

    return _call(server, "GET", path, None, timeout, read)


def ping(server: str, timeout: float = 5.0) -> dict | None:
    """The server's ``/healthz`` document, or ``None`` if unreachable
    (connection refused, timeout, non-200)."""
    try:
        return _get_json(server, "/healthz", timeout)
    except (OSError, ValueError, ServeError):
        return None


def fetch_metrics(server: str, timeout: float = 10.0) -> dict:
    """The server's ``/metrics`` document (raises on failure)."""
    return _get_json(server, "/metrics", timeout)


def submit(document, server: str, timeout: float | None = None,
           on_result=None) -> list:
    """POST *document* to ``/run`` on *server*; the results, in spec
    order.

    *on_result*, when given, is called ``(index, result)`` as each
    envelope arrives — the streaming mirror of
    :meth:`Workbench.run_many`'s hook. Each result's ``cached`` flag
    carries the server's store-hit verdict (transport metadata; it
    never appears in the canonical document).

    Raises:
        ServeError: the server rejected the request (the message names
            the status and the server's ``error``), or the stream ended
            early, failed mid-stream or could not be parsed.
        OSError: the server is unreachable — the connection was
            refused, reset, or closed before any response byte (also
            on the one retry of a kept connection), or *timeout* ran
            out. Callers that want a fallback use
            :func:`submit_or_local`.
    """
    from repro.workbench.artifacts import RunResult

    def read(response) -> list:
        if response.status != 200:
            payload = response.read()
            try:
                detail = json.loads(payload.decode("utf-8"))["error"]
            except Exception:
                detail = response.reason
            raise ServeError(f"server rejected the request "
                             f"({response.status}): {detail}",
                             status=response.status)
        results: dict[int, object] = {}
        summary = None
        for line in _lines(response):
            if not line.strip():
                continue
            envelope = json.loads(line.decode("utf-8"))
            if envelope.get("error"):
                raise ServeError(
                    f"server failed mid-stream: {envelope['error']}")
            if envelope.get("done"):
                summary = envelope
                break
            result = RunResult.from_doc(envelope["result"])
            result.cached = bool(envelope.get("cached", False))
            results[envelope["index"]] = result
            if on_result is not None:
                on_result(envelope["index"], result)
        if summary is None:
            raise ServeError(
                "result stream ended without a summary (connection lost "
                "or server died mid-request)")
        response.read()  # the end of the chunked body
        expected = summary["runs"]
        if len(results) != expected or \
                set(results) != set(range(expected)):
            raise ServeError(
                f"result stream is incomplete: got {len(results)} of "
                f"{expected} results")
        return [results[index] for index in range(expected)]

    payload = json.dumps(document).encode("utf-8")
    return _call(server, "POST", "/run", payload, timeout, read)


def submit_or_local(document, server: str | None = None, store=None,
                    workers: int | None = None, backend: str = "serial",
                    on_result=None) -> tuple[list, str]:
    """Run *document* on *server* if reachable, else locally.

    Returns ``(results, origin)`` where *origin* is ``"server"`` or
    ``"local"``. Only *reachability* failures (connection refused,
    reset, timeout) and a draining server fall back; draining is read
    from the reply's status, 503, never from its message. A reachable
    server rejecting the document (any other status) raises, because
    the document would fail locally for the same reason.
    """
    if server:
        try:
            return submit(document, server, on_result=on_result), "server"
        except ServeError as exc:
            if exc.status != 503:
                raise
        except OSError:
            pass
    results = run_local(document, store=store, workers=workers,
                        backend=backend, on_result=on_result)
    return results, "local"


def run_local(document, store=None, workers: int | None = None,
              backend: str = "serial", on_result=None) -> list:
    """Execute a batch document offline, exactly as the server would:
    inline models are registered under their request-local names, specs
    run through one :class:`~repro.workbench.Workbench`. This is the
    reference implementation the server must stay byte-identical to,
    and the loader ``repro batch`` and ``repro submit`` share.

    *workers* defaults to the core count on the ``process`` backend,
    which exists to use the cores, and to 1 otherwise."""
    from repro.serve.server import split_document
    from repro.workbench.artifacts import RunSpec
    from repro.workbench.frontends import load_doc
    from repro.workbench.session import Workbench

    models, runs = split_document(document)
    workbench = Workbench(store=store)
    for name, source_doc in models.items():
        workbench.attach(name, load_doc(source_doc))
    specs = [RunSpec.from_doc(doc) for doc in runs]
    if workers is None:
        workers = (os.cpu_count() or 1) if backend == "process" else 1
    return workbench.run_many(specs, workers=workers, backend=backend,
                              on_result=on_result)
