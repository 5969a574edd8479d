"""Client for the analysis server — and its offline twin.

:func:`submit` posts a batch document to a running server and parses
the NDJSON stream back into :class:`~repro.workbench.artifacts.RunResult`
objects; :func:`run_local` executes the *same* document through an
in-process :class:`~repro.workbench.Workbench`; and
:func:`submit_or_local` ties them together — try the server, fall back
to local execution when no server is reachable. Because results are
canonical documents on both paths, callers cannot tell (byte-wise)
where an analysis ran.

Everything here is stdlib-only (``urllib``), matching the server side.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

from repro.serve.state import ServeError


def _endpoint(server: str, path: str) -> str:
    base = server if "://" in server else f"http://{server}"
    return base.rstrip("/") + path


def _get_json(server: str, path: str, timeout: float) -> dict:
    with urllib.request.urlopen(_endpoint(server, path),
                                timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def ping(server: str, timeout: float = 5.0) -> dict | None:
    """The server's ``/healthz`` document, or ``None`` if unreachable
    (connection refused, timeout, non-200)."""
    try:
        return _get_json(server, "/healthz", timeout)
    except (urllib.error.URLError, OSError, ValueError):
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
    never appears in the canonical document). Raises
    :class:`ServeError` when the server rejects the request or the
    stream ends early, :class:`urllib.error.URLError` (or ``OSError``)
    when the server is unreachable — callers that want a fallback use
    :func:`submit_or_local`.
    """
    from repro.workbench.artifacts import RunResult

    payload = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        _endpoint(server, "/run"), data=payload,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        response = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read().decode("utf-8"))["error"]
        except Exception:
            detail = exc.reason
        raise ServeError(
            f"server rejected the request ({exc.code}): {detail}"
        ) from exc

    results: dict[int, object] = {}
    summary = None
    with response:
        for line in response:
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
    expected = summary["runs"]
    if len(results) != expected or set(results) != set(range(expected)):
        raise ServeError(
            f"result stream is incomplete: got {len(results)} of "
            f"{expected} results")
    return [results[index] for index in range(expected)]


def submit_or_local(document, server: str | None = None, store=None,
                    workers: int | None = None, backend: str = "serial",
                    on_result=None) -> tuple[list, str]:
    """Run *document* on *server* if reachable, else locally.

    Returns ``(results, origin)`` where *origin* is ``"server"`` or
    ``"local"``. Only *reachability* failures (connection refused,
    reset, timeout, server draining) fall back — a reachable server
    rejecting the document raises, because the document would fail
    locally for the same reason.
    """
    if server:
        try:
            return submit(document, server, on_result=on_result), "server"
        except ServeError as exc:
            if "draining" not in str(exc):
                raise
        except (urllib.error.URLError, OSError):
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
