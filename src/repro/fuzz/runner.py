"""The fuzzing round driver: generate, dedupe, check, shrink, report.

One *round* walks case indices ``0, 1, 2, …`` of one seed — front-ends
round-robin over the index, so any contiguous prefix covers all five —
until a stopping rule fires: a count of **checked** cases
(``--cases``), a wall-clock budget (``--budget``), or, with a corpus
saturating the count mode, a hard index cap that guarantees
termination. Each case is generated purely from ``(seed, index)``
(:mod:`repro.fuzz.rng`), so a round is reproducible on any machine;
cases whose corpus key is already proven clean are skipped without
spending oracle time (:mod:`repro.fuzz.corpus`).

Failures optionally pass through the shrinker
(:mod:`repro.fuzz.shrink`) before reporting; either way every failure
in the report carries a self-contained repro document replayable with
``repro batch``/``repro submit`` or re-compared with
``repro fuzz --replay``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fuzz.corpus import Corpus, case_key
from repro.fuzz.generators import (
    FRONTENDS,
    GenerationError,
    build_case,
)
from repro.fuzz.oracle import check_case
from repro.fuzz.rng import GENERATION
from repro.fuzz.shrink import case_size, shrink_case

#: generated-index cap per checked case asked for — the termination
#: guarantee when a saturated corpus dedupes almost every index
INDEX_CAP_FACTOR = 10
INDEX_CAP_SLACK = 100


@dataclass
class _CaseRecord:
    """What one processed index contributed to the round."""

    status: str  # "clean" | "deduped" | "failed" | "generator-error"
    checks: int = 0
    unencodable: bool = False
    failures: list[dict] = field(default_factory=list)


def _process_index(
    seed: int,
    index: int,
    frontend: str,
    corpus: Corpus | None,
    minimize: bool,
    shrink_attempts: int,
) -> _CaseRecord:
    try:
        case, handle = build_case(seed, index, frontend=frontend)
    except GenerationError as exc:
        return _CaseRecord(
            status="generator-error",
            failures=[
                {
                    "kind": "crash",
                    "seed": seed,
                    "index": index,
                    "frontend": frontend,
                    "property": None,
                    "detail": str(exc),
                    "repro": None,
                }
            ],
        )
    key = case_key(case, handle) if corpus is not None else None
    if corpus is not None and corpus.seen(key):
        return _CaseRecord(status="deduped")
    outcome = check_case(case, handle)
    record = _CaseRecord(
        status="clean" if outcome.ok else "failed",
        checks=outcome.checks,
        unencodable=outcome.unencodable,
    )
    if outcome.ok:
        if corpus is not None:
            corpus.record(key, case, outcome.checks)
        return record
    for failure in outcome.failures:
        doc = failure.to_doc()
        if minimize and failure.repro is not None:
            original_size = case_size(case)
            small_case, small_failure, attempts = shrink_case(
                case, failure, max_attempts=shrink_attempts
            )
            doc = small_failure.to_doc()
            doc["shrink"] = {
                "attempts": attempts,
                "from_size": original_size,
                "to_size": case_size(small_case),
            }
        record.failures.append(doc)
    return record


def run_round(
    seed: int,
    cases: int | None = None,
    budget: float | None = None,
    frontends: tuple | None = None,
    store=None,
    minimize: bool = False,
    shrink_attempts: int = 80,
    log=None,
) -> dict:
    """Run one fuzzing round; returns the JSON-able round report.

    Exactly one stopping rule is required: *cases* (count of checked,
    i.e. non-deduped, cases) or *budget* (seconds); give both and
    whichever fires first stops the round. *store* is an
    :class:`~repro.farm.ArtifactStore` (or path-like handed to one) for
    corpus dedupe; ``None`` checks every generated case.
    """
    if cases is None and budget is None:
        raise ValueError("run_round needs a cases count or a time budget")
    lanes = tuple(frontends) if frontends else FRONTENDS
    for frontend in lanes:
        if frontend not in FRONTENDS:
            raise ValueError(
                f"unknown fuzz front-end {frontend!r}; expected one of "
                f"{', '.join(FRONTENDS)}"
            )
    corpus = None
    if store is not None:
        from repro.farm import ArtifactStore

        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        corpus = Corpus(store)
    index_cap = None
    if cases is not None:
        index_cap = cases * INDEX_CAP_FACTOR + INDEX_CAP_SLACK
    started = time.monotonic()
    checked = 0
    deduped = 0
    unencodable = 0
    generator_errors = 0
    checks = 0
    per_frontend = {frontend: 0 for frontend in lanes}
    failures: list[dict] = []
    next_index = 0

    def out_of_budget() -> bool:
        if budget is not None and time.monotonic() - started >= budget:
            return True
        if cases is not None and checked >= cases:
            return True
        if index_cap is not None and next_index >= index_cap:
            return True
        return False

    while not out_of_budget():
        index = next_index
        next_index += 1
        frontend = lanes[index % len(lanes)]
        record = _process_index(
            seed, index, frontend, corpus, minimize, shrink_attempts
        )
        if record.status == "deduped":
            deduped += 1
            continue
        if record.status == "generator-error":
            generator_errors += 1
        checked += 1
        per_frontend[frontend] += 1
        checks += record.checks
        unencodable += record.unencodable
        failures.extend(record.failures)
        if record.failures and log is not None:
            for doc in record.failures:
                log(
                    f"FAIL case {index} ({frontend}): "
                    f"{doc['kind']}: {doc['detail']}"
                )

    report = {
        "seed": seed,
        "generation": GENERATION,
        "frontends": list(lanes),
        "cases": checked,
        "deduped": deduped,
        "unencodable": unencodable,
        "generator_errors": generator_errors,
        "checks": checks,
        "per_frontend": per_frontend,
        "failures": failures,
        "elapsed": round(time.monotonic() - started, 3),
        "ok": not failures,
    }
    return report


@dataclass
class ReplayCase:
    """A case rebuilt from a repro document's ``fuzz`` provenance —
    just enough surface for :func:`repro.fuzz.oracle.check_case`."""

    name: str
    document: dict
    properties: list[str]
    max_states: int
    seed: int = -1
    index: int = -1
    frontend: str = "replay"

    def model_doc(self) -> dict:
        return self.document


def replay_document(doc: dict) -> dict:
    """Re-run the oracle comparison a repro document describes.

    Accepts exactly what the farm emits on failure: one model under
    ``models``, check/explore runs under ``runs``, optional ``fuzz``
    provenance. Returns a one-case round report (same shape as
    :func:`run_round`)."""
    models = doc.get("models") or {}
    if len(models) != 1:
        raise ValueError(
            f"a fuzz repro document carries exactly one model, "
            f"got {len(models)}"
        )
    name, model_document = next(iter(models.items()))
    fuzz = doc.get("fuzz") or {}
    runs = doc.get("runs") or []
    properties: list[str] = []
    max_states = fuzz.get("max_states")
    for run in runs:
        prop = run.get("prop")
        if prop and prop not in properties:
            properties.append(prop)
        if max_states is None and run.get("max_states"):
            max_states = run["max_states"]
    if fuzz.get("property") and fuzz["property"] not in properties:
        properties.append(fuzz["property"])
    case = ReplayCase(
        name=name,
        document=model_document,
        properties=properties,
        max_states=int(max_states or 2500),
        seed=int(fuzz.get("seed", -1)),
        index=int(fuzz.get("index", -1)),
        frontend=str(fuzz.get("frontend", "replay")),
    )
    outcome = check_case(case)
    return {
        "seed": case.seed,
        "generation": GENERATION,
        "frontends": [case.frontend],
        "cases": 1,
        "deduped": 0,
        "unencodable": int(outcome.unencodable),
        "generator_errors": 0,
        "checks": outcome.checks,
        "per_frontend": {case.frontend: 1},
        "failures": [failure.to_doc() for failure in outcome.failures],
        "elapsed": 0.0,
        "ok": outcome.ok,
    }
