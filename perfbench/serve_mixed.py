"""Workload ``serve-mixed``: a warm ``repro serve`` under a closed loop.

Setup starts ``python -m repro serve --port 0 --store DIR`` as a child
process with ``--max-models`` below the number of models, and primes it
with every document of the repeat pool. Then one client sends a
request, waits for the whole reply, and sends the next (a closed loop of
one caller). A round sends each of the 24 primed documents once
(fingerprint, store read, NDJSON stream) and one fresh document per
model, a fresh property bound or a fresh random policy seed (compute on
a resident model and a store write): 75% store hits. One op is one
request.

Like a caller working on one model at a time, a round visits the models
in a fixed order and sends each model's four documents together, in a
seeded order. Eight models cycled through five resident slots make the
server evict and admit (and compile) every model once per round, so
every round does the same work; with the requests of all models
shuffled together, the number of admissions changed from round to round
and with it the round's time.

The four fresh SDF documents are the round's slowest ops by far (a step
of about 3x): with 32 ops the 90th percentile falls nine tenths of the
way up that step and follows the slow ops, where with 40 it fell a tenth
of the way and swung with the step's height.

One client, because the client, the server and its worker already take
turns on the host's two cores: with two clients, a request's latency
mostly measured how the host scheduled four busy threads, and spread by
half between runs of the same code.

Every reply is compared byte for byte with the offline result of the
same document: ``repro.serve.run_local`` for the repeat pool, and the
same ``Workbench.run_many`` path on warm handles for fresh documents.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import gen
from layers import load_record, serve_metrics, store_replay

CLIENTS = 1
#: resident models allowed (below the model count, so models get evicted)
MAX_MODELS = 5


def digest(texts) -> str:
    """One digest of a reply's result documents, in order."""
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


class Workload:
    name = "serve-mixed"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        # the shapes and the pool are fixed, so rounds of every seed cost
        # the same; the seed draws the order of the requests
        self.records = [
            gen.chain(5, 2, name="chainA"), gen.chain(6, 1, name="chainB"),
            gen.mesh(2, 3, name="meshA"), gen.torus(2, 2, name="torusA"),
            gen.ccsl_bounded(3, name="boundedA"),
            gen.ccsl_bounded(6, name="boundedB"),
            gen.moccml_window(2, name="windowA"),
            gen.moccml_window(4, name="windowB"),
        ]
        self.pool = [self._document(record, kind)
                     for record in self.records
                     for kind in ("deadlock", "live", "leads")]
        self.server = None
        self.url = None
        #: id(document) -> (document, digests of the replies it got); a
        #: digest per distinct reply, so memory does not grow with the
        #: number of requests the host had time for
        self.replies: dict[int, tuple[dict, set[str]]] = {}
        self._lock = threading.Lock()
        self._before = None
        #: the server's peak resident memory in KiB, read before it stops
        self.child_peak_kb = 0

    # -- inputs ------------------------------------------------------------

    def _document(self, record: dict, kind: str) -> dict:
        targets = record["targets"]
        if kind == "deadlock":
            prop = "AG !deadlock"
        elif kind == "live":
            prop = f"AG EF occurs({targets['sink']})"
        else:
            prop = f"occurs({targets['source']}) leads_to " \
                   f"occurs({targets['sink']})"
        return self._wrap(record, [
            {"format": 1, "kind": "check", "model": record["name"],
             "property": prop, "max_states": 10000},
            {"format": 1, "kind": "simulate", "model": record["name"],
             "policy": "asap", "steps": 20}])

    @staticmethod
    def _wrap(record: dict, runs: list) -> dict:
        return {"models": {record["name"]: record["doc"]}, "runs": runs}

    def _fresh(self, record: dict, uid: int) -> dict:
        """A document no earlier request carried: a fresh property bound
        and state budget (bounded families, every other round) or a fresh
        random-policy seed. The fresh budget misses the resident model's
        cached state space, so the check explores again whether or not an
        earlier check left a space behind, and costs the same in every
        round."""
        targets = record["targets"]
        if "bound_var" in targets and uid % 2:
            return self._wrap(record, [
                {"format": 1, "kind": "check", "model": record["name"],
                 "property": f"AG var({targets['bound_var']}) <= "
                             f"{targets['bound'] + uid}",
                 "max_states": 10000 + uid}])
        return self._wrap(record, [
            {"format": 1, "kind": "simulate", "model": record["name"],
             "policy": {"name": "random", "seed": uid}, "steps": 20}])

    def requests(self, round_index: int, client: int, traced: bool) -> list:
        """(key, document) pairs of one round: model by model, its primed
        documents and one fresh document in a seeded order. A key names
        the same op in every round."""
        rng = random.Random(f"serve-mixed:{self.seed}:{round_index}:{client}")
        # each pass owns 2 uids per model; they are odd on odd rounds
        models = len(self.records)
        first = ((round_index * 2 + traced) * CLIENTS + client) * 2 * models
        first += round_index % 2
        per_model = len(self.pool) // models
        requests = []
        for position, record in enumerate(self.records):
            group = [(f"fresh:{record['name']}",
                      self._fresh(record, first + 2 * position))]
            group += [(index, self.pool[index]) for index in range(
                position * per_model, (position + 1) * per_model)]
            rng.shuffle(group)
            requests += group
        return requests

    # -- phases ------------------------------------------------------------

    def setup(self) -> None:
        from repro.serve import submit
        store = os.path.join(self.workdir, f"serve-store-{os.getpid()}")
        log = os.path.join(self.workdir, f"serve-{os.getpid()}.log")
        with open(log, "wb") as output:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--store", store, "--max-models", str(MAX_MODELS),
                 "--workers", str(CLIENTS)],
                stdout=output, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while self.url is None:
            with open(log, encoding="utf-8", errors="replace") as text:
                found = re.search(r"listening on (http://\S+)", text.read())
            if found:
                self.url = found.group(1)
            elif self.server.poll() is not None or \
                    time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start (log {log})")
            else:
                time.sleep(0.01)
        for document in self.pool:
            submit(document, self.url, timeout=120)

    def warmup(self) -> None:
        from repro.serve import fetch_metrics
        self._before = fetch_metrics(self.url)

    def probe_records(self) -> list[dict]:
        return [self.records[0], self.records[4], self.records[6]]

    def run_round(self, round_index: int, rec, decomposed: bool) -> dict:
        from repro.serve import submit
        latencies, keys, failures = [], [], []

        traced = hasattr(rec, "spans")  # fresh documents differ per pass

        def client(index: int) -> None:
            for key, document in self.requests(round_index, index, traced):
                started = time.perf_counter()
                try:
                    with rec.span("op"), rec.span("serve.client"):
                        results = submit(document, self.url, timeout=60)
                except Exception as exc:  # a failed op, not a crash
                    with self._lock:
                        failures.append(f"request failed: {exc!r}")
                    continue
                elapsed = time.perf_counter() - started
                served = digest(result.to_json() for result in results)
                with self._lock:
                    latencies.append(elapsed)
                    keys.append(key)
                    self.replies.setdefault(
                        id(document), (document, set()))[1].add(served)

        started = time.perf_counter()
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {"wall_s": time.perf_counter() - started,
                "latencies": latencies, "keys": keys,
                "attempted": CLIENTS * (len(self.pool) + len(self.records)),
                "failures": failures, "digest": None}

    def finish(self) -> list[str]:
        """Compare every reply with the offline result of its document."""
        from repro.serve import run_local
        from repro.workbench import RunSpec, Workbench
        pooled = {json.dumps(document, sort_keys=True)
                  for document in self.pool}
        handles = {record["name"]: load_record(record)
                   for record in self.records}
        expected: dict[str, list[str]] = {}
        failures = []
        for document, served in self.replies.values():
            key = json.dumps(document, sort_keys=True)
            if key not in expected:
                if key in pooled:
                    offline = run_local(document)
                else:
                    workbench = Workbench()
                    for name in document["models"]:
                        workbench.attach(name, handles[name])
                    offline = workbench.run_many(
                        [RunSpec.from_doc(doc) for doc in document["runs"]],
                        backend="serial")
                expected[key] = [result.to_json() for result in offline]
            if served != {digest(expected[key])}:
                failures.append(
                    f"reply differs from offline for "
                    f"{hashlib.sha256(key.encode()).hexdigest()[:12]}")
        self._offline = (handles, expected)
        return failures

    def native_layers(self, rec) -> dict:
        from repro.serve import fetch_metrics
        from repro.workbench import RunResult, RunSpec
        native = serve_metrics(fetch_metrics(self.url), self._before)
        client_s = [span["end"] - span["start"] for span in rec.spans
                    if span["name"] == "serve.client"]
        native["serve.transport_ms"] = (1000 * sum(client_s) / len(client_s)
                                        - native.pop("_server_mean_ms"))
        handles, expected = self._offline
        pairs = []
        for document in self.pool:
            key = json.dumps(document, sort_keys=True)
            for name in document["models"]:
                for spec_doc, text in zip(document["runs"],
                                          expected.get(key, [])):
                    pairs.append((handles[name], RunSpec.from_doc(spec_doc),
                                  RunResult.from_json(text)))
        native.update(store_replay(
            pairs, os.path.join(self.workdir, "replay-farm")))
        return native

    def close(self) -> None:
        if self.server is None:
            return
        try:
            with open(f"/proc/{self.server.pid}/status",
                      encoding="utf-8") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        self.child_peak_kb = int(line.split()[1])
        except OSError:
            pass  # no procfs: report the client process alone
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server = None

