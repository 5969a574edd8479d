"""The client: local fallback, document splitting, endpoint handling,
kept connections."""

import http.client
import json
import os
import socket
import threading

import pytest

from repro.serve import ServeError, fetch_metrics, ping, run_local, serve, \
    split_document, submit, submit_or_local

CHAIN = """
application client_chain {
  agent a
  agent b
  place a -> b push 1 pop 1 capacity 2
}
"""


def document():
    return {"models": {"m": {"frontend": "sigpml", "text": CHAIN}},
            "runs": [{"kind": "simulate", "model": "m", "steps": 6}]}


#: a loopback port nothing listens on (port 1 is reserved)
DEAD = "http://127.0.0.1:1"


@pytest.fixture
def reached(monkeypatch):
    """``(backend, workers)`` of every call that reaches the farm; the
    groups then run serially, so no pool is started."""
    import repro.farm as farm

    execute_groups = farm.execute_groups
    calls = []

    def record(groups, backend, workers, deliver, should_stop=None):
        calls.append((backend, workers))
        execute_groups(groups, "serial", 1, deliver, should_stop)

    monkeypatch.setattr(farm, "execute_groups", record)
    return calls


class TestSplitDocument:
    def test_mapping_form(self):
        models, runs = split_document({"models": {"m": {}},
                                       "runs": [{"kind": "simulate"}]})
        assert models == {"m": {}}
        assert len(runs) == 1

    def test_bare_list_form(self):
        models, runs = split_document([{"kind": "simulate"}])
        assert models == {}
        assert len(runs) == 1

    def test_scalar_rejected(self):
        with pytest.raises(ServeError):
            split_document("nope")

    def test_malformed_sections_rejected(self):
        with pytest.raises(ServeError):
            split_document({"models": [], "runs": {}})


class TestFallback:
    def test_unreachable_server_falls_back_to_local(self):
        results, origin = submit_or_local(document(), server=DEAD)
        assert origin == "local"
        assert results[0].ok

    def test_no_server_runs_local(self):
        results, origin = submit_or_local(document(), server=None)
        assert origin == "local"
        assert results[0].ok

    def test_reachable_server_is_used(self):
        with serve(port=0).start() as server:
            results, origin = submit_or_local(document(),
                                              server=server.url)
        assert origin == "server"
        assert results[0].ok

    def test_draining_server_falls_back(self):
        server = serve(port=0).start()
        try:
            server.service.begin_drain()
            results, origin = submit_or_local(document(),
                                              server=server.url)
            assert origin == "local"
            assert results[0].ok
        finally:
            server.drain()

    @pytest.mark.parametrize("model", ["ghost", "draining"])
    def test_rejected_document_does_not_fall_back(self, model):
        bad = {"models": {}, "runs": [{"kind": "simulate",
                                       "model": model}]}
        with serve(port=0).start() as server:
            with pytest.raises(ServeError):
                submit_or_local(bad, server=server.url)

    def test_fallback_matches_server_bytes(self):
        with serve(port=0).start() as server:
            from_server, _ = submit_or_local(document(),
                                             server=server.url)
        from_local, _ = submit_or_local(document(), server=DEAD)
        assert [r.to_json() for r in from_server] == \
            [r.to_json() for r in from_local]


def one_reply_server(reply: bytes) -> str:
    """The URL of a listener that reads one request, answers it with
    *reply* and closes the connection."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        with listener, listener.accept()[0] as connection:
            received = b""
            while b"\r\n\r\n" not in received:
                received += connection.recv(65536)
            head, _, body = received.partition(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length:")[1]
                         .split(b"\r\n")[0])
            while len(body) < length:
                body += connection.recv(65536)
            connection.sendall(reply)

    threading.Thread(target=answer, daemon=True).start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}"


CHUNKED = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
           b"Transfer-Encoding: chunked\r\n\r\n")


def cut_reply(cut: str) -> bytes:
    """A ``/run`` reply to :func:`document` that stops at *cut*."""
    [result] = run_local(document())
    envelope = (json.dumps({"serve": 1, "index": 0, "cached": False,
                            "result": result.to_doc()}) + "\n").encode()
    chunk = b"%x\r\n" % len(envelope) + envelope + b"\r\n"
    return {"after-the-head": CHUNKED,
            "after-an-envelope": CHUNKED + chunk,
            "mid-envelope": CHUNKED + chunk[:40],
            "mid-envelope-close-delimited":
                b"HTTP/1.0 200 OK\r\n\r\n" + envelope[:40]}[cut]


class TestKeptConnection:
    def test_dead_server_falls_back_on_every_call(self):
        for _ in range(2):
            results, origin = submit_or_local(document(), server=DEAD)
            assert origin == "local"
            assert results[0].ok

    def test_restarted_server_is_reached_after_one_retry(self,
                                                         monkeypatch):
        first = serve(port=0).start()
        submit(document(), first.url)  # this thread keeps a connection
        port = first.server_address[1]
        first.drain()  # and the server closes it
        connects = []
        connect = http.client.HTTPConnection.connect

        def counted(self):
            connects.append(self.port)
            connect(self)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
        with serve(port=port).start() as second:
            assert second.url == first.url
            results, origin = submit_or_local(document(),
                                              server=second.url)
            assert origin == "server"
            assert results[0].ok
            assert connects == [port]
            assert fetch_metrics(second.url)["counters"][
                "connections"] == 1

    @pytest.mark.parametrize("cut", [
        "after-the-head", "after-an-envelope", "mid-envelope",
        "mid-envelope-close-delimited"])
    def test_stream_cut_mid_reply_is_a_serve_error(self, cut):
        seen = []
        with pytest.raises(ServeError, match="without a summary"):
            submit(document(), one_reply_server(cut_reply(cut)),
                   timeout=10,
                   on_result=lambda index, result: seen.append(index))
        assert seen == ([0] if cut == "after-an-envelope" else [])

    def test_bad_chunk_framing_is_a_serve_error(self):
        with pytest.raises(ServeError):
            submit(document(), one_reply_server(CHUNKED + b"zz\r\n"),
                   timeout=10)


class TestRunLocal:
    def test_streaming_callback(self):
        seen = []
        run_local(document(),
                  on_result=lambda index, result: seen.append(index))
        assert seen == [0]

    def test_default_backend_stays_in_process(self, monkeypatch):
        # two inline models are two shippable groups, yet the serial
        # default runs both here, the way the server does
        import repro.farm.backend as backend

        def no_pool(*args, **kwargs):
            raise AssertionError("the default backend spawned a pool")

        monkeypatch.setattr(backend, "ProcessPoolExecutor", no_pool)
        twin = {"models": {name: {"frontend": "sigpml", "text": CHAIN}
                           for name in ("m", "n")},
                "runs": [{"kind": "simulate", "model": name, "steps": 6}
                         for name in ("m", "n")]}
        results = run_local(twin, workers=2)
        assert [result.ok for result in results] == [True, True]
        assert results[0].data == results[1].data

    def test_process_backend_defaults_to_core_count(self, reached,
                                                    monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_local(document(), backend="process")
        assert reached == [("process", 3)]

    def test_process_backend_without_core_count_uses_one(self, reached,
                                                         monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        run_local(document(), backend="process")
        assert reached == [("process", 1)]

    def test_serial_backend_defaults_to_one(self, reached, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        run_local(document())
        assert reached == [("serial", 1)]

    def test_explicit_workers_are_kept(self, reached, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        run_local(document(), workers=2, backend="process")
        run_local(document(), workers=3)
        assert reached == [("process", 2), ("serial", 3)]

    def test_ping_unreachable_is_none(self):
        assert ping(DEAD) is None
