"""Store robustness: corruption tolerance, concurrency, LRU gc."""

import json
import os
import threading
import time

import pytest

from repro.farm import ArtifactStore
from repro.farm.store import StoreError

FP = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


def doc(n=0):
    return {"kind": "simulate", "model": "m", "status": "ok",
            "data": {"steps_run": n}, "spec": {}, "format": 1}


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "farm")


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(FP, doc(3))
        assert store.get(FP) == doc(3)
        assert store.counters["hits"] == 1

    def test_missing_is_a_miss(self, store):
        assert store.get(FP) is None
        assert store.counters["misses"] == 1

    def test_rewrite_wins(self, store):
        store.put(FP, doc(1))
        store.put(FP, doc(2))
        assert store.get(FP) == doc(2)

    def test_stats_shape(self, store):
        store.put(FP, doc())
        report = store.stats()
        assert report["entries"] == 1
        assert report["total_bytes"] > 0
        assert report["session"]["writes"] == 1

    def test_malformed_fingerprint_rejected(self, store):
        with pytest.raises(StoreError):
            store.put("x", doc())

    def test_uncreatable_shard_is_a_store_error(self, store):
        # a regular file where the shard directory belongs: callers
        # swallow StoreError, so nothing else may escape
        (store.objects / FP[:2]).write_text("not a directory")
        with pytest.raises(StoreError, match="cannot write"):
            store.put(FP, doc())
        assert store.get(FP) is None
        assert store.counters["writes"] == 0


class TestCorruptionTolerance:
    def entry_path(self, store):
        return store.objects / FP[:2] / f"{FP}.json"

    def test_garbage_bytes_fall_back_to_miss(self, store):
        store.put(FP, doc())
        self.entry_path(store).write_bytes(b"\x00\xffnot json")
        assert store.get(FP) is None
        assert store.counters["corrupt"] == 1
        # the corrupt entry was healed away
        assert not self.entry_path(store).exists()

    def test_truncated_entry_falls_back_to_miss(self, store):
        store.put(FP, doc())
        path = self.entry_path(store)
        path.write_bytes(path.read_bytes()[:20])
        assert store.get(FP) is None

    def test_payload_tamper_detected(self, store):
        store.put(FP, doc(1))
        path = self.entry_path(store)
        envelope = json.loads(path.read_text())
        envelope["result"]["data"]["steps_run"] = 999  # digest mismatch
        path.write_text(json.dumps(envelope))
        assert store.get(FP) is None
        assert store.counters["corrupt"] == 1

    def test_wrong_fingerprint_envelope_rejected(self, store):
        store.put(OTHER, doc())
        wrong = store.objects / FP[:2] / f"{FP}.json"
        wrong.parent.mkdir(parents=True, exist_ok=True)
        source = store.objects / OTHER[:2] / f"{OTHER}.json"
        wrong.write_bytes(source.read_bytes())
        assert store.get(FP) is None

    def test_recompute_after_corruption_heals(self, store):
        store.put(FP, doc(1))
        self.entry_path(store).write_bytes(b"garbage")
        assert store.get(FP) is None
        store.put(FP, doc(1))
        assert store.get(FP) == doc(1)


class TestConcurrency:
    def test_parallel_writers_leave_a_valid_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "farm")
        errors = []

        def writer(wid):
            try:
                for _ in range(25):
                    # same fingerprint, identical bytes — the real racing
                    # pattern (content-addressed writers agree)
                    store.put(FP, doc(7))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((wid, exc))

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.get(FP) == doc(7)
        # no temporary litter left behind
        leftovers = [p for p in store.objects.rglob(".tmp-*")]
        assert leftovers == []

    def test_reader_during_writes_never_sees_half_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "farm")
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                got = store.get(FP)
                if got is not None and got != doc(7):
                    bad.append(got)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(200):
                store.put(FP, doc(7))
        finally:
            stop.set()
            thread.join()
        assert bad == []
        # atomic publishes mean a reader never manufactures corruption
        assert store.counters["corrupt"] == 0


class TestGc:
    def fill(self, store, count):
        fingerprints = []
        for index in range(count):
            fp = f"{index:02x}" + f"{index:062x}"
            store.put(fp, doc(index))
            # strictly increasing mtimes make LRU order deterministic
            path = store.objects / fp[:2] / f"{fp}.json"
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
            fingerprints.append(fp)
        return fingerprints

    def test_max_entries_drops_oldest_first(self, store):
        fingerprints = self.fill(store, 6)
        report = store.gc(max_entries=2)
        assert report["removed"] == 4
        assert report["kept"] == 2
        for fp in fingerprints[:4]:
            assert store.get(fp) is None
        for fp in fingerprints[4:]:
            assert store.get(fp) is not None

    def test_max_bytes_enforced(self, store):
        self.fill(store, 6)
        entry_bytes = store.stats()["total_bytes"] // 6
        report = store.gc(max_bytes=entry_bytes * 3)
        assert report["total_bytes"] <= entry_bytes * 3
        assert store.stats()["entries"] == report["kept"]

    def test_get_refreshes_lru_rank(self, store):
        fingerprints = self.fill(store, 4)
        time.sleep(0.01)
        assert store.get(fingerprints[0]) is not None  # touch the oldest
        store.gc(max_entries=1)
        # the touched entry is now the most recent and survives
        assert store.get(fingerprints[0]) is not None

    def test_gc_without_limits_is_a_noop(self, store):
        self.fill(store, 3)
        report = store.gc()
        assert report["removed"] == 0
        assert store.stats()["entries"] == 3

    def test_clear_empties_the_store(self, store):
        self.fill(store, 3)
        assert store.clear() == 3
        assert store.stats()["entries"] == 0


class TestGcWhileServing:
    """gc racing concurrent reads/writes — the serving-mode contract:
    a reader never sees a torn entry, only a miss it can self-heal
    from, and an entry read between gc's listing and its unlink is
    spared (its refreshed mtime proves it is not LRU anymore)."""

    def fill(self, store, count):
        fingerprints = []
        for index in range(count):
            fp = f"{index:02x}" + f"{index:062x}"
            store.put(fp, doc(index))
            path = store.objects / fp[:2] / f"{fp}.json"
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
            fingerprints.append(fp)
        return fingerprints

    def test_gc_spares_entries_read_since_listing(self, store,
                                                  monkeypatch):
        fingerprints = self.fill(store, 3)
        stale = store._entries()
        oldest_path = stale[0][2]
        # freeze gc's view of the world at the stale listing, then
        # simulate a reader hitting the oldest entry in between (a hit
        # refreshes the mtime — see ArtifactStore.get)
        monkeypatch.setattr(store, "_entries", lambda: stale)
        now = time.time()
        os.utime(oldest_path, (now, now))
        report = store.gc(max_entries=1)
        assert report["spared"] == 1
        assert oldest_path.exists()  # the freshly-read entry survived
        assert store.get(fingerprints[0]) is not None
        # the untouched middle candidate was removed normally
        assert report["removed"] == 1
        assert store.get(fingerprints[1]) is None

    def test_gc_tolerates_candidates_already_unlinked(self, store,
                                                      monkeypatch):
        self.fill(store, 3)
        stale = store._entries()
        monkeypatch.setattr(store, "_entries", lambda: stale)
        stale[0][2].unlink()  # a concurrent gc (or clear) won the race
        report = store.gc(max_entries=1)
        # only the file gc itself unlinked counts as removed
        assert report["removed"] == 1
        monkeypatch.undo()
        assert store.stats()["entries"] == 1

    def test_gc_racing_reads_and_writes_never_tears(self, tmp_path):
        store = ArtifactStore(tmp_path / "farm")
        fingerprints = [f"{i:02x}" + f"{i:062x}" for i in range(16)]
        stop = threading.Event()
        torn = []
        errors = []

        def reader():
            while not stop.is_set():
                for index, fp in enumerate(fingerprints):
                    got = store.get(fp)
                    # a miss is fine (gc got it); a hit must be intact
                    if got is not None and got != doc(index):
                        torn.append(got)

        def writer():
            while not stop.is_set():
                for index, fp in enumerate(fingerprints):
                    store.put(fp, doc(index))

        def janitor():
            try:
                while not stop.is_set():
                    store.gc(max_entries=8)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=target)
                   for target in (reader, reader, writer, janitor)]
        for thread in threads:
            thread.start()
        time.sleep(0.6)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert torn == []
        assert errors == []
        # atomic publishes + digest checks: racing gc manufactures
        # misses, never corruption
        assert store.counters["corrupt"] == 0

    def test_miss_after_gc_self_heals_on_rewrite(self, store):
        fingerprints = self.fill(store, 2)
        store.gc(max_entries=0)
        assert store.get(fingerprints[0]) is None  # plain miss
        store.put(fingerprints[0], doc(0))  # recompute-and-write heals
        assert store.get(fingerprints[0]) == doc(0)


class TestCounterCorrectness:
    def test_counters_are_exact_across_threads(self, tmp_path):
        store = ArtifactStore(tmp_path / "farm")
        store.put(FP, doc(1))
        workers = 8
        hits_each, misses_each, writes_each = 20, 10, 5

        def work(wid):
            for _ in range(hits_each):
                assert store.get(FP) is not None
            for _ in range(misses_each):
                assert store.get(OTHER) is None
            for index in range(writes_each):
                fp = f"{wid:02x}" + f"{index:062x}"
                store.put(fp, doc(index))

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert store.counters["hits"] == workers * hits_each
        assert store.counters["misses"] == workers * misses_each
        assert store.counters["writes"] == workers * writes_each + 1
        assert store.counters["corrupt"] == 0
        # stats() folds the same counters in consistently
        assert store.stats()["session"] == store.counters
