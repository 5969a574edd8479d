"""repro.farm — the result farm: cached, parallel analysis at scale.

Every analysis the workbench runs is a pure function of three inputs:
the execution model, the run spec, and the engine version. This package
exploits that purity twice over:

* :mod:`repro.farm.fingerprint` — a canonical SHA-256 **content
  address** for any (model, spec) pair;
* :mod:`repro.farm.store` — a corruption-tolerant, atomically-written,
  LRU-collectable **artifact store** keyed by those fingerprints, so a
  previously computed :class:`~repro.workbench.artifacts.RunResult` is
  served byte-identically instead of recomputed;
* :mod:`repro.farm.backend` — the **execution backends** behind
  :meth:`~repro.workbench.Workbench.run_many`
  (``serial``/``process``): the process backend rebuilds
  models in workers from their declarative source documents and merges
  canonical result JSON by input position, so cold multi-model batches
  scale with cores while results stay byte-identical to the serial
  baseline.

Usage::

    from repro.workbench import Workbench

    wb = Workbench(store="~/.cache/repro-farm")   # warm across sessions
    wb.add(text, name="demo")
    results = wb.run_many(specs, workers=8, backend="process")
    assert results[0].cached in (True, False)     # noted per result

or from the CLI::

    repro batch specs.json --store .farm --backend process --workers 8
    repro store stats .farm
    repro store gc .farm --max-bytes 100000000

The store is a pure accelerator: deleting it (or a version bump, which
changes every fingerprint) costs recomputation, never correctness.
"""

from repro.farm.backend import BACKENDS, BackendError, GroupTask, \
    execute_groups
from repro.farm.fingerprint import (
    FingerprintError,
    canonical_json,
    fingerprint,
    model_doc,
    try_fingerprint,
)
from repro.farm.store import ArtifactStore, StoreError

__all__ = [
    "ArtifactStore", "StoreError",
    "fingerprint", "try_fingerprint", "model_doc", "canonical_json",
    "FingerprintError",
    "BACKENDS", "BackendError", "GroupTask", "execute_groups",
]
