"""Deterministic per-case random streams.

Every fuzz case draws from its own :class:`random.Random` seeded by the
string ``"repro-fuzz:<seed>:<index>"``. Seeding from a string hashes it
through SHA-512 (CPython's documented behavior), so the stream depends
only on the round seed and the case index — never on generation order
or which earlier cases were deduplicated. That is the whole determinism
story: the same ``(seed, index)`` pair produces byte-identical model
documents and property texts on any machine, in any round.
"""

from __future__ import annotations

import random

#: bump when the generator grammar changes incompatibly — it reseeds
#: every stream, so corpora and regression seeds do not silently drift
GENERATION = 2  # 2: structures are redrawn until lint-clean


def case_rng(seed: int, index: int) -> random.Random:
    """The private random stream of case *index* in round *seed*."""
    return random.Random(f"repro-fuzz:{GENERATION}:{seed}:{index}")


def sub_rng(rng: random.Random, tag: str) -> random.Random:
    """A derived stream for one generation aspect (e.g. properties), so
    changes to one aspect's draw count do not reshuffle the others."""
    return random.Random(f"{tag}:{rng.getrandbits(64)}")
