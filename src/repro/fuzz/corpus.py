"""Corpus management: remembering which cases already came up clean.

A long-running farm (the nightly job caches its corpus directory
across runs) should spend its budget on *new* behavior, not on
re-checking cases it has already proven clean. The corpus is an
ordinary :class:`~repro.farm.ArtifactStore`; each clean case is
recorded under its **corpus key** — the SHA-256 of the canonical JSON
of the farm fingerprints of every run the oracle would execute for the
case. Because each farm fingerprint already covers the model's
canonical serialization, the full spec, and the engine version
(:func:`repro.farm.fingerprint`), two differently-generated cases that
would run the same checks dedupe to one entry, and *every* entry
silently invalidates when the engine version bumps — a new engine
re-earns its whole corpus.

Only clean outcomes are recorded. A failing case must keep failing in
every future round until the bug is fixed (at which point its verdicts,
and nothing else, need re-proving), so failures are never deduped
away. Unencodable cases are recorded too — re-checking explicit-only
coverage is cheap but not free.
"""

from __future__ import annotations

import hashlib

from repro.errors import ReproError
from repro.fuzz.generators import FuzzCase
from repro.fuzz.oracle import backend_specs
from repro.fuzz.rng import GENERATION

#: schema marker of corpus entries (they share the farm store format)
CORPUS_KIND = "fuzz-corpus-entry"


def case_key(case: FuzzCase, handle) -> str | None:
    """The corpus key of *case*, or ``None`` when any of its runs has
    no canonical fingerprint (such a case is simply never deduped)."""
    from repro.farm import canonical_json, spec_fingerprint
    from repro.workbench.session import try_model_prefix

    prefix = try_model_prefix(handle)
    if prefix is None:
        return None
    rows = [backend_specs(case, prop) for prop in case.properties]
    # the exploration, then per backend its checks
    specs = backend_specs(case) + [spec for column in zip(*rows) for spec in column]
    try:
        prints = [spec_fingerprint(prefix, spec) for spec in specs]
    except ReproError:
        return None
    digest = hashlib.sha256(canonical_json(prints).encode("utf-8"))
    return digest.hexdigest()


class Corpus:
    """The seen-clean case corpus over one artifact store."""

    def __init__(self, store):
        self.store = store

    def seen(self, key: str | None) -> bool:
        """Whether *key* is already proven clean (``None`` never is)."""
        if key is None:
            return False
        return self.store.has(key)

    def record(self, key: str | None, case: FuzzCase, checks: int) -> None:
        """Record a clean case under *key* (no-op without a key)."""
        if key is None:
            return
        self.store.put(
            key,
            {
                "kind": CORPUS_KIND,
                "generation": GENERATION,
                "seed": case.seed,
                "index": case.index,
                "frontend": case.frontend,
                "checks": checks,
            },
        )
