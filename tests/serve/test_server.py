"""The HTTP server: round-trip byte-identity, error paths, store
write-through, concurrency, and drain semantics."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (ServeError, fetch_metrics, ping, run_local,
                         serve, submit)
from repro.serve.server import MAX_BODY_BYTES, _Handler
from tests.workbench.test_artifacts import BAD_RUNS

CHAIN = """
application serve_chain {
  agent source
  agent worker
  agent sink
  place source -> worker push 1 pop 1 capacity 2
  place worker -> sink push 1 pop 1 capacity 2
}
"""

FORK = """
application serve_fork {
  agent split
  agent left
  agent right
  place split -> left push 1 pop 1 capacity 1
  place split -> right push 1 pop 1 capacity 1
}
"""


BOARD = """
platform board {
  processor p1
}
allocation {
  source, worker, sink -> p1
}
"""


def model_doc(text):
    return {"frontend": "sigpml", "text": text}


#: model descriptions the server refuses: (id, description, the field
#: the refusal names). The ``*path`` ones, and a text holding a path,
#: name files the test writes into the server's working directory.
BAD_MODELS = [
    ("unparsable-text", {"frontend": "sigpml", "text": "not a model"},
     "text"),
    ("not-an-object", 5, "object"),
    ("description-options-not-an-object",
     {"frontend": "sigpml", "text": CHAIN, "options": [1, 2]}, "options"),
    ("options-clash-with-load",
     {"frontend": "sigpml", "text": CHAIN, "options": {"name": "x"}},
     "name"),
    # a description's options hold only what its front-end reads
    ("description-unknown-option",
     {"frontend": "sigpml", "text": CHAIN, "options": {"bogus": 1}},
     "bogus"),
    ("mapping-text-not-a-string",
     {"frontend": "sigpml", "text": CHAIN, "options": {"mapping_text": 5}},
     "mapping_text"),
    ("place-variant-not-a-string",
     {"frontend": "sigpml", "text": CHAIN,
      "options": {"place_variant": True}}, "place_variant"),
    ("ccsl-reads-no-option",
     {"frontend": "ccsl", "events": ["a", "b"], "options": {"bogus": 1}},
     "bogus"),
    ("pam-reads-no-option",
     {"frontend": "pam", "configuration": "dual",
      "options": {"place_variant": "strict"}}, "place_variant"),
    ("ccsl-without-events", {"frontend": "ccsl", "constraints": []},
     "events"),
    ("moccml-without-events", {"frontend": "moccml", "constraints": []},
     "events"),
    ("events-not-a-list", {"frontend": "ccsl", "events": "ab"}, "events"),
    ("pam-capacity-not-an-integer",
     {"frontend": "pam", "configuration": "dual", "capacity": "x"},
     "capacity"),
    ("ccsl-constraint-not-an-object",
     {"frontend": "ccsl", "events": ["a", "b"], "constraints": [5]},
     "constraint"),
    ("ccsl-constraints-not-a-list",
     {"frontend": "ccsl", "events": ["a", "b"], "constraints": 5},
     "constraints"),
    ("sigpml-path", {"frontend": "sigpml", "path": "chain.sigpml"},
     "path"),
    ("text-holding-a-path", {"frontend": "sigpml", "text": "chain.sigpml"},
     "text"),
    ("deployment-paths",
     {"frontend": "deployment", "application_path": "chain.sigpml",
      "deployment_path": "board.dep"}, "application_path"),
    ("deployment-text-holding-a-path",
     {"frontend": "deployment", "application_text": CHAIN,
      "deployment_text": "board.dep"}, "deployment_text"),
    # a place holding more initial tokens than its capacity
    ("sigpml-place-over-full",
     model_doc("application overfull {\n  agent a\n  agent b\n"
               "  place a -> b push 1 pop 1 capacity 1 delay 3\n}"),
     "capacity"),
]


def assert_refused_cleanly(server):
    """The refusal was counted and the server still serves."""
    counters = fetch_metrics(server.url)["counters"]
    assert counters["requests_failed"] == 1
    assert ping(server.url)["status"] == "ok"


def document():
    return {
        "models": {"chain": model_doc(CHAIN), "fork": model_doc(FORK)},
        "runs": [
            {"kind": "simulate", "model": "chain", "steps": 10},
            {"kind": "explore", "model": "chain", "max_states": 500},
            {"kind": "check", "model": "fork",
             "property": "AG !deadlock", "max_states": 500},
            {"kind": "simulate", "model": "fork", "steps": 8},
        ],
    }


@pytest.fixture()
def server():
    instance = serve(port=0, workers=4).start()
    yield instance
    instance.drain()


class TestRoundTrip:
    def test_served_results_are_byte_identical_to_local(self, server):
        served = submit(document(), server.url)
        local = run_local(document())
        assert len(served) == 4
        for from_server, offline in zip(served, local):
            assert from_server.to_json() == offline.to_json()

    def test_streaming_callback_order(self, server):
        seen = []
        submit(document(), server.url,
               on_result=lambda index, result: seen.append(index))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_result_model_names_are_request_local(self, server):
        served = submit(document(), server.url)
        assert [result.model for result in served] == \
            ["chain", "chain", "fork", "fork"]

    def test_same_model_under_two_names(self, server):
        doc = {
            "models": {"a": model_doc(CHAIN), "b": model_doc(CHAIN)},
            "runs": [{"kind": "simulate", "model": "a", "steps": 5},
                     {"kind": "simulate", "model": "b", "steps": 5}],
        }
        served = submit(doc, server.url)
        assert served[0].model == "a"
        assert served[1].model == "b"
        # one fingerprint: the cache holds a single entry
        assert len(server.service.cache) == 1


class TestErrorPaths:
    def test_unknown_model_name_is_rejected(self, server):
        doc = {"models": {},
               "runs": [{"kind": "simulate", "model": "ghost"}]}
        with pytest.raises(ServeError, match="ghost"):
            submit(doc, server.url)

    def test_undefined_model_named_draining_is_a_400(self, server):
        # a 503 means the server is draining, whatever a message says
        body = json.dumps({"models": {}, "runs": [
            {"kind": "simulate", "model": "draining"}]}).encode()
        request = urllib.request.Request(
            server.url + "/run", data=body,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "draining" in json.loads(excinfo.value.read())["error"]
        assert_refused_cleanly(server)

    @pytest.mark.parametrize("run", [
        {"kind": "nonsense"},
    ] + [doc for _id, doc, _field in BAD_RUNS],
        ids=["unknown-kind"] + [case[0] for case in BAD_RUNS])
    def test_invalid_spec_is_rejected(self, server, run):
        doc = {"models": {"chain": model_doc(CHAIN)},
               "runs": [{"model": "chain", **run}]}
        with pytest.raises(ServeError, match=r"\(400\).*not a valid spec"):
            submit(doc, server.url)
        assert_refused_cleanly(server)

    @pytest.mark.parametrize("description, field",
                             [case[1:] for case in BAD_MODELS],
                             ids=[case[0] for case in BAD_MODELS])
    def test_unloadable_model_is_a_400_not_a_crash(self, server, tmp_path,
                                                   monkeypatch,
                                                   description, field):
        # the path descriptions name real files: the server must refuse
        # them, not load them off its own disk
        monkeypatch.chdir(tmp_path)
        (tmp_path / "chain.sigpml").write_text(CHAIN)
        (tmp_path / "board.dep").write_text(BOARD)
        doc = {"models": {"m": description},
               "runs": [{"kind": "simulate", "model": "m"}]}
        with pytest.raises(ServeError, match=rf"\(400\).*{field}"):
            submit(doc, server.url)
        assert_refused_cleanly(server)

    def test_empty_runs_rejected(self, server):
        with pytest.raises(ServeError):
            submit({"models": {}, "runs": []}, server.url)

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_garbage_body_400(self, server):
        request = urllib.request.Request(
            server.url + "/run", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_per_spec_engine_errors_stream_as_results(self, server):
        doc = {"models": {"chain": model_doc(CHAIN)},
               "runs": [{"kind": "check", "model": "chain",
                         "property": "AG !!broken!!syntax"},
                        {"kind": "simulate", "model": "chain",
                         "steps": 5}]}
        served = submit(doc, server.url)
        assert not served[0].ok  # the bad property fails its own run
        assert served[1].ok      # without taking the batch down


def raw_post(server, head: bytes) -> socket.socket:
    """A connection that has sent *head* after ``POST /run``."""
    host, port = server.server_address[:2]
    connection = socket.create_connection((host, port), timeout=5)
    connection.sendall(b"POST /run HTTP/1.0\r\n" + head)
    return connection


def status_line(connection: socket.socket) -> bytes:
    with connection.makefile("rb") as reply:
        return reply.readline()


class TestUntrustedLength:
    """The declared body length is checked before any byte is read."""

    @pytest.mark.parametrize("declared, status", [
        (b"-1", b"400"),  # would read until the client closes
        (b"99999999999", b"413"),  # would allocate the declared size
        (str(MAX_BODY_BYTES + 1).encode(), b"413"),
        (b"twelve", b"400"),
    ])
    def test_bad_length_is_answered(self, server, declared, status):
        with raw_post(server, b"Content-Length: " + declared
                      + b"\r\n\r\n") as connection:
            assert status_line(connection).startswith(
                b"HTTP/1.1 " + status)
        counters = fetch_metrics(server.url)["counters"]
        assert counters["requests_failed"] == 1
        assert counters["requests"] == 0  # nothing was executed
        assert ping(server.url)["status"] == "ok"

    def test_body_limit_is_64_mib(self):
        assert MAX_BODY_BYTES == 64 * 1024 * 1024


class TestStalledClient:
    def test_connection_timeout_lives_on_the_handler(self):
        # StreamRequestHandler.setup() applies the handler's timeout to
        # every accepted socket; serve_forever never reads the server's
        assert _Handler.timeout == 600

    def test_drain_returns_while_a_client_stalls_mid_body(self,
                                                         monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        server = serve(port=0).start()
        report = {}

        def drainer():
            report.update(server.drain())

        with raw_post(server, b"Content-Length: 100\r\n\r\n"
                      + b"{" * 50) as connection:
            # connections are accepted in arrival order, so once a later
            # one is answered the stalled one has its handler thread
            assert ping(server.url)["status"] == "ok"
            thread = threading.Thread(target=drainer)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            # the timed-out body read is answered like any unreadable one
            assert status_line(connection).startswith(b"HTTP/1.1 400")
        assert report["counters"]["requests_failed"] == 1


def read_to_close(server, data: bytes) -> bytes:
    """Everything the server sends back for *data* on one connection,
    up to the server closing it."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as connection:
        connection.sendall(data)
        with connection.makefile("rb") as reply:
            return reply.read()


def post(path: str, body: bytes, version: bytes = b"HTTP/1.1",
         headers: bytes = b"") -> bytes:
    return (b"POST " + path.encode() + b" " + version + b"\r\n" + headers
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


#: a request pipelined behind one the server answers unread
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


class TestUnparsableRequestLine:
    @pytest.mark.parametrize("line", [
        b"26\r\n",  # a chunk size where a request line was due
        b"GARBAGE\r\n\r\n",
        b"GET /healthz HTTP/9\r\n\r\n",
    ], ids=["chunk-size", "one-word", "http-9"])
    def test_answered_400_then_closed(self, server, line):
        # read_to_close returns at EOF: the server closed the connection
        head, _, _page = read_to_close(server, line).partition(b"\r\n\r\n")
        status, *headers = head.split(b"\r\n")
        assert status.startswith(b"HTTP/1.1 400 "), status
        assert b"Connection: close" in headers
        assert ping(server.url)["status"] == "ok"


class TestKeepAlive:
    def test_one_thread_sends_every_request_on_one_connection(self,
                                                             server):
        for _ in range(10):
            submit(document(), server.url)
        counters = fetch_metrics(server.url)["counters"]
        assert counters["requests"] == 10
        assert counters["connections"] == 1

    def test_each_thread_keeps_its_own_connection(self, server):
        threads = [threading.Thread(target=submit,
                                    args=(document(), server.url))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        # this thread's fetch opens the third
        counters = fetch_metrics(server.url)["counters"]
        assert counters["requests"] == 2
        assert counters["connections"] == 3

    def test_drain_closes_an_idle_kept_connection_at_once(self):
        assert _Handler.timeout == 600
        server = serve(port=0).start()
        host, port = server.server_address[:2]
        client = http.client.HTTPConnection(host, port, timeout=30)
        try:
            client.request("GET", "/healthz")
            assert client.getresponse().read()
            thread = threading.Thread(target=server.drain)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            client.close()

    def test_http11_stream_is_one_chunk_per_envelope(self, server):
        reply = read_to_close(server, post(
            "/run", json.dumps(document()).encode(),
            headers=b"Connection: close\r\n"))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        envelopes = []
        while True:
            size, _, body = body.partition(b"\r\n")
            chunk, body = body[:int(size, 16)], body[int(size, 16) + 2:]
            if not chunk:
                break
            assert chunk.count(b"\n") == 1 and chunk.endswith(b"\n")
            envelopes.append(json.loads(chunk))
        assert body == b""
        assert len(envelopes) == 5 and envelopes[-1]["done"] is True

    def test_http10_stream_ends_with_the_connection(self, server):
        reply = read_to_close(server, post(
            "/run", json.dumps(document()).encode(), b"HTTP/1.0"))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Transfer-Encoding" not in head
        envelopes = [json.loads(line) for line in body.splitlines()]
        assert len(envelopes) == 5 and envelopes[-1]["done"] is True
        assert [result.to_doc() for result in run_local(document())] == \
            [envelope["result"] for envelope in sorted(
                envelopes[:-1], key=lambda envelope: envelope["index"])]


def read_response(reply) -> bytes:
    """The head of the one response read off the file *reply*; its
    ``Content-Length`` body is read too."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        head += reply.readline()
    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
    assert len(reply.read(length)) == length
    return head


class TestUnreadBodyClosesTheConnection:
    """An answer sent before the request body was read whole closes the
    connection: the pipelined request behind it is never parsed out of
    the unread body."""

    @pytest.mark.parametrize("request_bytes, status", [
        (b"POST /run HTTP/1.1\r\nContent-Length: -1\r\n\r\n" + HEALTHZ,
         b"400"),
        (b"POST /run HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (MAX_BODY_BYTES + 1) + HEALTHZ, b"413"),
        (b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         + b"%x\r\n" % len(HEALTHZ) + HEALTHZ + b"\r\n0\r\n\r\n", b"411"),
        (post("/nope", HEALTHZ), b"404"),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % len(HEALTHZ) + HEALTHZ, b"200"),
    ], ids=["bad-length", "oversized-length", "chunked-body",
            "unknown-route", "get-with-a-body"])
    def test_pipelined_request_is_not_parsed(self, server, request_bytes,
                                            status):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as connection:
            connection.sendall(request_bytes)
            with connection.makefile("rb") as reply:
                assert read_response(reply).startswith(
                    b"HTTP/1.1 " + status)
                assert reply.read() == b""  # and the server closed
        assert ping(server.url)["status"] == "ok"

    def test_rest_of_a_stalled_body_is_not_parsed(self, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        with serve(port=0).start() as server:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port),
                                          timeout=5) as connection:
                connection.sendall(b"POST /run HTTP/1.1\r\nContent-Length: "
                                   b"%d\r\n\r\n{" % (1 + len(HEALTHZ)))
                with connection.makefile("rb") as reply:
                    # answered once the body read timed out
                    assert read_response(reply).startswith(
                        b"HTTP/1.1 400")
                    try:  # the declared body's last bytes, sent late
                        connection.sendall(HEALTHZ)
                        rest = reply.read()
                    except ConnectionError:
                        rest = b""
                    assert rest == b""
            assert fetch_metrics(server.url)["counters"][
                "requests_failed"] == 1


class TestIntrospection:
    def test_healthz(self, server):
        health = ping(server.url)
        assert health["status"] == "ok"
        assert health["workers"] == 4
        assert health["inflight"] == 0

    def test_metrics_counts_requests_and_runs(self, server):
        submit(document(), server.url)
        metrics = fetch_metrics(server.url)
        assert metrics["counters"]["requests"] == 1
        assert metrics["counters"]["runs"] == 4
        assert metrics["counters"]["model_compiles"] == 2
        assert metrics["latency"]["request_s"]["count"] == 1
        assert metrics["model_cache"]["models"] == 2

    def test_metrics_gauges_present(self, server):
        submit(document(), server.url)
        gauges = fetch_metrics(server.url)["gauges"]
        assert gauges["models_cached"] == 2
        assert isinstance(gauges["resident_bdd_nodes"], int)


class TestStoreWriteThrough:
    def test_second_request_is_all_hits_and_byte_identical(self, tmp_path):
        with serve(port=0, store=tmp_path / "store").start() as server:
            cold = submit(document(), server.url)
            assert not any(result.cached for result in cold)
            warm = submit(document(), server.url)
            assert all(result.cached for result in warm)
            for a, b in zip(cold, warm):
                assert a.to_json() == b.to_json()
            metrics = fetch_metrics(server.url)
            assert metrics["counters"]["store_hits"] == 4
            assert metrics["counters"]["store_misses"] == 4
            assert metrics["cache_hit_rate"] == 0.5


class TestConcurrency:
    def test_concurrent_same_model_requests_compile_once(self, server):
        doc = {"models": {"chain": model_doc(CHAIN)},
               "runs": [{"kind": "explore", "model": "chain",
                         "max_states": 500}]}
        payloads: list[list] = []
        errors: list[BaseException] = []

        def client():
            try:
                payloads.append(
                    [r.to_json() for r in submit(doc, server.url)])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(payloads) == 8
        reference = payloads[0]
        assert all(payload == reference for payload in payloads)
        metrics = fetch_metrics(server.url)
        # single-flight: the herd compiled the model exactly once
        assert metrics["counters"]["model_compiles"] == 1
        assert metrics["counters"]["requests"] == 8

    def test_byte_identity_across_worker_counts(self, tmp_path):
        payloads = {}
        for workers in (1, 4):
            with serve(port=0, workers=workers).start() as server:
                results = submit(document(), server.url)
                payloads[workers] = [r.to_json() for r in results]
        assert payloads[1] == payloads[4]


class TestDrain:
    def test_drain_refuses_new_work_and_evicts(self):
        server = serve(port=0).start()
        submit(document(), server.url)
        assert len(server.service.cache) == 2
        report = server.drain()
        assert report["evicted_on_close"] == 2
        assert ping(server.url) is None  # socket is closed

    def test_draining_service_rejects_requests(self):
        server = serve(port=0).start()
        try:
            server.service.begin_drain()
            assert ping(server.url)["status"] == "draining"
            with pytest.raises(ServeError, match="draining"):
                submit(document(), server.url)
        finally:
            server.drain()

    def test_drain_waits_for_inflight_requests(self):
        release = threading.Event()
        started = threading.Event()

        def slow_loader(source_doc):
            started.set()
            release.wait(timeout=30)
            from repro.workbench.frontends import load, source_from_doc
            return load(source_from_doc(source_doc))

        server = serve(port=0, loader=slow_loader).start()
        outcome = {}

        def client():
            doc = {"models": {"chain": model_doc(CHAIN)},
                   "runs": [{"kind": "simulate", "model": "chain",
                             "steps": 5}]}
            outcome["results"] = submit(doc, server.url)

        thread = threading.Thread(target=client)
        thread.start()
        started.wait(timeout=30)

        drained = {}

        def drainer():
            drained["report"] = server.drain()

        drain_thread = threading.Thread(target=drainer)
        drain_thread.start()
        # the drain must be blocked on the in-flight request
        drain_thread.join(timeout=0.5)
        assert drain_thread.is_alive()
        release.set()
        thread.join(timeout=30)
        drain_thread.join(timeout=30)
        assert not drain_thread.is_alive()
        assert outcome["results"][0].ok
        assert drained["report"]["counters"]["requests"] == 1


class TestJsonEnvelope:
    def test_raw_ndjson_stream_shape(self, server):
        payload = json.dumps(document()).encode()
        request = urllib.request.Request(
            server.url + "/run", data=payload,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            lines = [json.loads(line) for line in response
                     if line.strip()]
        assert len(lines) == 5  # four results + the summary
        for envelope in lines[:-1]:
            assert envelope["serve"] == 1
            assert set(envelope) == {"serve", "index", "cached",
                                     "result"}
        summary = lines[-1]
        assert summary["done"] is True
        assert summary["runs"] == 4
        assert summary["errors"] == 0
