"""The content-addressed artifact store.

One directory holds one artifact per fingerprint (see
:mod:`repro.farm.fingerprint`), sharded by the first two hex digits::

    <root>/objects/ab/abcdef…0123.json

Each file is a small envelope around the canonical
:class:`~repro.workbench.artifacts.RunResult` document::

    {"farm_store": 1,
     "fingerprint": "<the content address>",
     "payload_sha256": "<sha256 of the canonical result JSON>",
     "result": {…}}

Design points:

* **Atomic writes** — an entry is written to a unique temporary file in
  the same shard directory and published with :func:`os.replace`, so a
  reader (or a concurrent writer) never observes a half-written file;
  the last writer wins with a complete entry either way. Two writers
  racing on one fingerprint write identical bytes by construction.
* **Corruption-tolerant reads** — :meth:`ArtifactStore.get` re-derives
  the payload digest and checks the embedded fingerprint; any mismatch,
  truncation, or JSON garbage counts as a miss (and the corrupt file is
  unlinked best-effort) so callers silently fall back to recompute.
* **LRU garbage collection** — every hit refreshes the entry's mtime;
  :meth:`ArtifactStore.gc` drops least-recently-used entries until the
  store is under ``max_entries``/``max_bytes``.

The store never stores error results — a failed run is not an artifact
worth replaying — and is safe to delete wholesale at any time: it is a
pure accelerator, nothing in it is a source of truth.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from pathlib import Path

from repro.errors import ReproError
from repro.farm.fingerprint import canonical_json

#: on-disk envelope format version
STORE_FORMAT = 1

_tmp_counter = itertools.count()


class StoreError(ReproError):
    """The store root is unusable (not creatable, not a directory)."""


class ArtifactStore:
    """A content-addressed store of run-result documents on disk."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.objects = self.root / "objects"
        try:
            self.objects.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store at {self.root}: {exc}") \
                from exc
        self._lock = threading.Lock()
        #: session counters (on-disk state is in :meth:`stats`)
        self.counters = {"hits": 0, "misses": 0, "writes": 0,
                         "corrupt": 0}

    # -- paths -------------------------------------------------------------

    def _path(self, fingerprint: str) -> Path:
        if not isinstance(fingerprint, str) or len(fingerprint) < 3:
            raise StoreError(f"malformed fingerprint {fingerprint!r}")
        return self.objects / fingerprint[:2] / f"{fingerprint}.json"

    # -- read --------------------------------------------------------------

    def get(self, fingerprint: str) -> dict | None:
        """The stored result document for *fingerprint*, or ``None``.

        Any defect — missing file, truncated/garbled JSON, an envelope
        for a different fingerprint, a payload whose digest does not
        match — is a miss: the caller recomputes, and a verifiably
        corrupt file is removed so the slot heals on the next write.
        """
        path = self._path(fingerprint)
        try:
            raw = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        document = self._validate(raw, fingerprint)
        if document is None:
            self._count("corrupt")
            self._count("misses")
            try:  # heal: drop the corrupt entry
                path.unlink()
            except OSError:
                pass
            return None
        self._count("hits")
        try:  # refresh LRU clock; never worth failing a hit over
            os.utime(path)
        except OSError:
            pass
        return document["result"]

    def has(self, fingerprint: str) -> bool:
        """Whether an entry for *fingerprint* exists, without reading
        it. Trusts the filename (full envelope validation stays in
        :meth:`get`); a hit refreshes the LRU clock so entries a corpus
        keeps probing are not the first ones :meth:`gc` drops."""
        path = self._path(fingerprint)
        try:
            exists = path.is_file()
        except OSError:
            return False
        if exists:
            try:
                os.utime(path)
            except OSError:
                pass
        return exists

    def _validate(self, raw: bytes, fingerprint: str) -> dict | None:
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(document, dict) \
                or document.get("farm_store") != STORE_FORMAT \
                or document.get("fingerprint") != fingerprint \
                or "result" not in document:
            return None
        digest = _payload_digest(document["result"])
        if document.get("payload_sha256") != digest:
            return None
        return document

    # -- write -------------------------------------------------------------

    def put(self, fingerprint: str, result_doc: dict) -> bool:
        """Store *result_doc* under *fingerprint* (atomic; last writer
        wins with a complete entry). Returns True when written."""
        path = self._path(fingerprint)
        envelope = {
            "farm_store": STORE_FORMAT,
            "fingerprint": fingerprint,
            "payload_sha256": _payload_digest(result_doc),
            "result": result_doc,
        }
        payload = canonical_json(envelope).encode("utf-8")
        shard = path.parent
        temp = shard / (f".tmp-{fingerprint[:8]}-{os.getpid()}"
                        f"-{threading.get_ident()}-{next(_tmp_counter)}")
        try:
            shard.mkdir(parents=True, exist_ok=True)
            with open(temp, "wb") as handle:
                handle.write(payload)
            os.replace(temp, path)
        except OSError as exc:
            try:
                temp.unlink()
            except OSError:
                pass
            raise StoreError(
                f"cannot write artifact {fingerprint[:12]}… to "
                f"{self.root}: {exc}") from exc
        self._count("writes")
        return True

    # -- maintenance -------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for every entry, oldest first."""
        entries = []
        for path in self.objects.glob("??/*.json"):
            try:
                status = path.stat()
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
        entries.sort(key=lambda item: (item[0], item[2].name))
        return entries

    def stats(self) -> dict:
        """On-disk shape plus this session's hit/miss counters."""
        entries = self._entries()
        with self._lock:
            counters = dict(self.counters)
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(size for _mtime, size, _path in entries),
            "session": counters,
        }

    def gc(self, max_entries: int | None = None,
           max_bytes: int | None = None) -> dict:
        """Drop least-recently-used entries until under the limits.

        With no limit given this is a no-op report. Returns a summary
        with the removed/kept/spared counts and the bytes freed.

        Safe to run while the store is being served: every candidate is
        re-checked immediately before removal, and one whose mtime
        advanced since the listing was just *read* (a hit refreshes the
        LRU clock) — it is spared rather than deleted out from under
        its reader. Readers racing the unlink itself are already safe:
        a vanished file is an ordinary miss and the caller recomputes.
        """
        entries = self._entries()
        keep = list(entries)
        candidates: list[tuple[float, int, Path]] = []
        if max_entries is not None:
            while len(keep) > max(max_entries, 0):
                candidates.append(keep.pop(0))
        if max_bytes is not None:
            total = sum(size for _mtime, size, _path in keep)
            while keep and total > max(max_bytes, 0):
                item = keep.pop(0)
                candidates.append(item)
                total -= item[1]
        removed = 0
        spared = 0
        freed = 0
        for mtime, size, path in candidates:
            try:
                if path.stat().st_mtime > mtime:
                    spared += 1  # touched since listing: recently used
                    continue
            except OSError:
                continue  # already gone — a concurrent gc got it
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return {"removed": removed, "kept": len(keep) + spared,
                "spared": spared, "freed_bytes": freed,
                "total_bytes": sum(size for _m, size, _p in keep)}

    def clear(self) -> int:
        """Remove every entry unconditionally; returns how many were
        dropped. Unlike :meth:`gc` this does not spare recently-read
        entries — it is the wipe, not the janitor."""
        removed = 0
        for _mtime, _size, path in self._entries():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def _count(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1

    def __repr__(self):
        return f"ArtifactStore({str(self.root)!r})"


def _payload_digest(result_doc: dict) -> str:
    return hashlib.sha256(
        canonical_json(result_doc).encode("utf-8")).hexdigest()
