"""The client: local fallback, document splitting, endpoint handling."""

import pytest

from repro.serve import ServeError, ping, run_local, serve, \
    split_document, submit_or_local

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

    def test_rejected_document_does_not_fall_back(self):
        bad = {"models": {}, "runs": [{"kind": "simulate",
                                       "model": "ghost"}]}
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

    def test_ping_unreachable_is_none(self):
        assert ping(DEAD) is None
