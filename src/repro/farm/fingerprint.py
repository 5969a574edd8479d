"""Canonical fingerprints for (model, spec) pairs.

A fingerprint is the content address of one analysis artifact: the
SHA-256 of a canonical JSON document combining

* the execution model's **canonical serialization** — its events plus a
  structural dump of every constraint runtime (class identity, event
  bindings, integer parameters, automaton definitions, counter state),
* the run spec's **canonical JSON** (``RunSpec.to_doc()``), and
* the **engine version** (``repro.__version__``) plus the fingerprint
  format version — bumping either invalidates every cached artifact,
  which is the safe direction: a new engine recomputes rather than
  serving artifacts a different build produced.

Two models fingerprint equal only if they are structurally identical,
so equal fingerprints mean the engine would compute byte-identical
artifacts. The converse does not hold (the same semantics reached
through different constraint classes fingerprints differently) — a
fingerprint is a cache key, not a semantic equivalence class.

The structural dump walks ``vars(runtime)`` with a closed encoder:
plain values encode canonically, known model objects (nested runtimes,
automaton definitions, boolean expressions) encode through their
canonical forms, and anything unknown raises :class:`FingerprintError`.
Unknown runtimes therefore make a model *uncacheable* rather than
silently colliding: :func:`try_fingerprint` returns ``None`` and the
caller recomputes, which is always sound.

The model part is serialized once per model configuration, not once
per spec: :func:`fingerprint_prefix` feeds a SHA-256 state with the
canonical document's bytes up to the spec, and :func:`spec_fingerprint`
finishes a copy of it with the spec's canonical JSON. The hashed bytes
are exactly those of the whole document, so fingerprints, store keys
and artifacts are the same as if each spec serialized the model anew.
A workbench handle memoizes its prefix
(:func:`repro.workbench.session.try_model_prefix`), so warm store hits
on a resident model hash only their spec.
"""

from __future__ import annotations

import hashlib
import json

from repro.boolalg.expr import BExpr
from repro.engine.execution_model import ExecutionModel
from repro.errors import ReproError

#: fingerprint format version; part of every hash
FORMAT = 1

#: per-instance caches and other attributes that do not define the
#: constraint (pure accelerators, recomputed on demand)
_SKIP_ATTRS = frozenset({"_guard_cache", "_support"})


class FingerprintError(ReproError):
    """The model (or spec) has no canonical serialization."""


def _encode(value, path: str):
    """Canonical JSON-able structure for *value*; non-JSON containers
    (sets, non-string-keyed dicts) are tagged and sorted so equal
    values encode identically regardless of iteration order."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"~float": repr(value)}
    if isinstance(value, (list, tuple)):
        return [_encode(item, path) for item in value]
    if isinstance(value, (set, frozenset)):
        try:
            members = sorted(_encode(item, path) for item in value)
        except TypeError as exc:  # unorderable members: no canonical form
            raise FingerprintError(
                f"unorderable set members at {path}: {exc}") from exc
        return {"~set": members}
    if isinstance(value, dict):
        try:
            items = sorted((str(key), _encode(item, f"{path}.{key}"))
                           for key, item in value.items())
        except TypeError as exc:  # two keys stringify equal, values clash
            raise FingerprintError(
                f"unorderable dict items at {path}: {exc}") from exc
        return {"~dict": items}
    if isinstance(value, BExpr):
        # BExpr repr is canonical: structure-determined, no addresses
        return {"~expr": repr(value)}
    if _is_runtime(value):
        return runtime_doc(value)
    if type(value).__name__ == "ConstraintAutomataDefinition":
        from repro.moccml.serialize import _automaton_to_dict
        return {"~automaton": _automaton_to_dict(value)}
    raise FingerprintError(
        f"no canonical serialization for {type(value).__name__} at "
        f"{path} — this model cannot be fingerprinted")


def _is_runtime(value) -> bool:
    from repro.moccml.semantics.automata_rt import AutomatonRuntime
    from repro.moccml.semantics.runtime import ConstraintRuntime
    return isinstance(value, (ConstraintRuntime, AutomatonRuntime))


def runtime_doc(runtime) -> dict:
    """The canonical structural document of one constraint runtime.

    Every attribute that could influence current *or future* behavior
    is included — parameters and automaton definitions, not just the
    mutable state — so two constraints that merely agree on their
    current step formula do not collide.
    """
    cls = type(runtime)
    attrs = {}
    for name, value in sorted(vars(runtime).items()):
        if name in _SKIP_ATTRS:
            continue
        attrs[name] = _encode(value, f"{cls.__name__}.{name}")
    return {"~runtime": f"{cls.__module__}.{cls.__qualname__}",
            "attrs": attrs}


def model_doc(model: ExecutionModel) -> dict:
    """The canonical serialization of an execution model.

    Captures the event alphabet (in declaration order — it fixes the
    BDD variable order) and every constraint's structural document.
    Raises :class:`FingerprintError` for models containing runtimes the
    encoder does not know.
    """
    return {"name": model.name,
            "events": list(model.events),
            "constraints": [runtime_doc(constraint)
                            for constraint in model.constraints]}


def fingerprint_prefix(model_document: dict):
    """The model part of every fingerprint on one model, hashed once.

    A SHA-256 state fed with the canonical bytes of the fingerprint
    document up to its spec: ``{"engine":…,"format":1,"model":<model
    JSON>,"spec":`` (canonical JSON sorts the keys, so ``spec`` comes
    last). Finish it with :func:`spec_fingerprint`. The state cannot be
    pickled; it lives on a handle memo, and handles never are.
    """
    import repro
    head = canonical_json({"format": FORMAT, "engine": repro.__version__,
                           "model": model_document})
    return hashlib.sha256(head[:-1].encode("utf-8") + b',"spec":')


def spec_fingerprint(prefix, spec) -> str:
    """The fingerprint of *spec* on the model whose
    :func:`fingerprint_prefix` is *prefix*.

    Hashes the spec's canonical JSON and the document's closing brace
    into a copy of *prefix*, which itself is never fed, so one prefix
    serves any number of specs and threads. Raises
    :class:`~repro.errors.SerializationError` (or ``PolicyError``) when
    the spec has no canonical JSON.
    """
    state = prefix.copy()
    state.update(canonical_json(spec.to_doc()).encode("utf-8"))
    state.update(b"}")
    return state.hexdigest()


def fingerprint(model: ExecutionModel, spec,
                model_document: dict | None = None) -> str:
    """The SHA-256 content address of (*model*, *spec*): the hash of
    the canonical JSON of ``{"format", "engine", "model", "spec"}``.

    *spec* is a :class:`~repro.workbench.artifacts.RunSpec`; a caller
    holding the model's :func:`model_doc` may pass it as
    *model_document*. Raises :class:`FingerprintError` when the model
    is not fingerprintable and
    :class:`~repro.errors.SerializationError` when the spec is not
    (e.g. it carries a policy instance instead of a policy spec).
    """
    if model_document is None:
        model_document = model_doc(model)
    return spec_fingerprint(fingerprint_prefix(model_document), spec)


def try_fingerprint(model: ExecutionModel, spec,
                    model_document: dict | None = None) -> str | None:
    """:func:`fingerprint`, or ``None`` when the pair has no canonical
    serialization (the caller computes without caching — always sound).

    Any :class:`~repro.errors.ReproError` counts: an unencodable model
    (:class:`FingerprintError`) or an unserializable spec (a policy
    instance raises ``PolicyError``, a missing property
    ``SerializationError``)."""
    try:
        return fingerprint(model, spec, model_document=model_document)
    except ReproError:
        return None


def canonical_json(document) -> str:
    """Canonical JSON text: sorted keys, fixed separators, no spaces."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
