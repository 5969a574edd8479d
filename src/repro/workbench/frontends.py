"""The front-end registry: any DSL input → a uniform :class:`ModelHandle`.

Every way of producing an execution model — SigPML text or files, an
:class:`~repro.sdf.builder.SdfBuilder`, a platform deployment, a PAM
study configuration, a CCSL or raw MoCCML constraint specification, or
a bare :class:`~repro.engine.execution_model.ExecutionModel` — is a
*front-end*: a named loader plus a matcher predicate. :func:`load`
dispatches a source to the first matching front-end (or to an explicit
one) and returns a :class:`ModelHandle` carrying the woven execution
model together with whatever front-end artifacts produced it.

New DSLs plug in with :func:`register_frontend`; nothing in the engine
or the workbench needs to change.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.engine.execution_model import ExecutionModel
from repro.errors import ReproError


class FrontendError(ReproError):
    """No front-end matched, or a front-end rejected its source."""


# ---------------------------------------------------------------------------
# source spec types (declarative, JSON-representable descriptions)
# ---------------------------------------------------------------------------

@dataclass
class DeploymentSpec:
    """A SigPML application deployed on a platform.

    *application* is any source the SDF front-ends accept (SigPML text,
    a path, an :class:`SdfBuilder`, a ``(model, app)`` pair);
    *deployment* is a platform+allocation document (text or path) or a
    ``(Platform, Allocation)`` pair.
    """

    application: object
    deployment: object
    place_variant: str = "default"
    name: str | None = None


@dataclass
class PamConfiguration:
    """One configuration of the PAM deployment study."""

    configuration: str = "infinite"
    capacity: int = 1
    cycles: dict[str, int] | None = None


@dataclass
class CcslSpec:
    """A bare CCSL specification: events plus kernel-relation instances.

    Each constraint is ``(relation_name, arguments)`` or a mapping with
    ``relation``/``args`` (and optionally ``label``) keys; arguments are
    event names and ints, exactly as
    :meth:`~repro.moccml.library.LibraryRegistry.instantiate` takes them.
    """

    name: str
    events: list[str]
    constraints: list = field(default_factory=list)


@dataclass
class MoccmlSpec:
    """A raw MoCCML specification: an optional library of user-defined
    constraint automata/declarations plus instantiations over events.

    The CCSL kernel library is always available; *library_text* may
    define additional constraints in MoCCML textual syntax.
    """

    name: str
    events: list[str]
    constraints: list = field(default_factory=list)
    library_text: str | None = None


# ---------------------------------------------------------------------------
# the uniform handle
# ---------------------------------------------------------------------------

@dataclass
class ModelHandle:
    """A loaded model: the woven execution model plus its provenance.

    The handle is the workbench's unit of work: run specs reference
    handles by name, and the batch runner shares one symbolic kernel per
    handle by cloning :attr:`execution_model` (clones share the kernel).
    """

    name: str
    frontend: str
    execution_model: ExecutionModel
    #: the DSL application object (SigPML/PAM), when the front-end has one
    application: object | None = None
    #: the kernel :class:`~repro.kernel.model.Model` holding *application*
    source_model: object | None = None
    #: the ECL weave tables, when the model was woven
    weave: object | None = None
    #: the :class:`~repro.deployment.weaver.DeploymentResult`, if deployed
    deployment: object | None = None
    metadata: dict = field(default_factory=dict)
    #: a declarative, JSON-able description that rebuilds this handle
    #: (``source_from_doc`` + loader options) — the ticket the process
    #: backend ships to workers. ``None`` for programmatic sources
    #: (builders, bare execution models), which then run in-parent.
    source_doc: dict | None = None
    #: per-handle execution lock: the batch runner (and any other
    #: driver running specs against this handle from several threads)
    #: holds it for the duration of a run group, so the handle's shared
    #: symbolic kernel — whose LRU caches are not thread-safe — is only
    #: ever touched by one thread at a time. Reentrant, so nested
    #: session calls under the lock stay legal.
    exec_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False)

    def fresh(self) -> ExecutionModel:
        """A pristine clone of the execution model (shared kernel)."""
        return self.execution_model.clone()

    def describe(self) -> dict:
        """A JSON-serializable summary of the handle."""
        return {
            "name": self.name,
            "frontend": self.frontend,
            "events": len(self.execution_model.events),
            "constraints": len(self.execution_model.constraints),
            "has_application": self.application is not None,
            "metadata": dict(self.metadata),
        }

    def __repr__(self):
        return (f"ModelHandle({self.name!r}, frontend={self.frontend!r}, "
                f"{len(self.execution_model.events)} events)")


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass
class _Frontend:
    name: str
    matches: Callable[[object], bool]
    loader: Callable[..., ModelHandle]
    priority: int = 0


_FRONTENDS: dict[str, _Frontend] = {}


def register_frontend(name: str,
                      matches: Callable[[object], bool] | None = None,
                      priority: int = 0):
    """Register a front-end loader (decorator).

    The loader takes the source plus the keyword options it reads and
    returns a :class:`ModelHandle`. *matches* is a predicate deciding
    whether an arbitrary source belongs to this front-end; front-ends
    with a higher *priority* are probed first. Without a matcher the
    front-end is reachable only by explicit name
    (``load(src, frontend=name)``).
    """
    def decorate(loader):
        _FRONTENDS[name] = _Frontend(
            name=name,
            matches=matches or (lambda source: False),
            loader=loader, priority=priority)
        return loader
    return decorate


def frontend_names() -> list[str]:
    """Registered front-end names, in probe order."""
    ranked = sorted(_FRONTENDS.values(),
                    key=lambda f: (-f.priority, f.name))
    return [frontend.name for frontend in ranked]


def load(source, frontend: str | None = None, name: str | None = None,
         **options) -> ModelHandle:
    """Turn *source* into a :class:`ModelHandle`.

    With *frontend* the named loader is used directly; otherwise the
    registered matchers are probed in priority order. *name* overrides
    the handle name; remaining *options* go to the loader (e.g.
    ``place_variant`` for the SDF front-ends).
    """
    if isinstance(source, ModelHandle):
        if name is not None:
            source.name = name
        return source
    with obs.span("model.load", frontend=frontend) as trace:
        obs.count("model.loads")
        if frontend is not None:
            try:
                entry = _FRONTENDS[frontend]
            except KeyError:
                raise FrontendError(
                    f"unknown front-end {frontend!r}; registered: "
                    f"{', '.join(frontend_names())}") from None
            handle = entry.loader(source, **options)
        else:
            for probe in sorted(_FRONTENDS.values(),
                                key=lambda f: (-f.priority, f.name)):
                if probe.matches(source):
                    handle = probe.loader(source, **options)
                    break
            else:
                raise FrontendError(
                    f"no front-end recognizes source of type "
                    f"{type(source).__name__}; registered: "
                    f"{', '.join(frontend_names())}")
        if name is not None:
            handle.name = name
        trace.set(frontend=handle.frontend, model=handle.name)
    return handle


#: model-description fields naming a file on the loading machine
PATH_FIELDS = ("path", "application_path", "deployment_path")

#: the loader options of a SigPML description (no other reads one)
_SIGPML_OPTIONS = {"place_variant": str, "mapping_text": str}


def load_doc(doc: dict, name: str | None = None) -> ModelHandle:
    """Load a JSON model description (see :func:`source_from_doc`); its
    ``options`` object holds the loader keywords its front-end reads,
    refused by name when it reads none such or a type is wrong. *name*
    overrides the handle name."""
    source = source_from_doc(doc)
    kind = doc.get("frontend")
    reads = _SIGPML_OPTIONS if kind in (None, "sigpml", "sdf") else {}
    options = doc.get("options") or {}
    unknown = sorted(set(options) - set(reads))
    if unknown:
        raise FrontendError(
            f"model description option(s) {unknown} are not read by "
            f"front-end {kind or 'sigpml'!r}; it reads "
            f"{', '.join(sorted(reads)) or 'none'}")
    _check_types(options, reads, "option")
    return load(source, name=name, **options)


def source_from_doc(doc: dict):
    """Rebuild a loadable source from a JSON model description.

    This is the inverse used by batch files and the CLI: a mapping with
    a ``frontend`` key plus front-end-specific fields (``path`` or
    ``text`` for sigpml/deployment, ``configuration`` for pam,
    ``events``/``constraints`` for ccsl/moccml); a ``null`` field reads
    as absent. A description that is not an object, lacks a field its
    front-end needs or holds a field of the wrong JSON type raises
    :class:`FrontendError` naming it. A ``*_text`` field holds inline
    source, never a path: the loaders would read a text without a
    ``{`` block as a file name.
    """
    if not isinstance(doc, dict):
        raise FrontendError(
            f"a model description must be an object, not {doc!r:.60}")
    doc = {key: value for key, value in doc.items() if value is not None}
    _check_types(doc, {"frontend": str, "options": dict})
    kind = doc.get("frontend")
    if kind in (None, "sigpml", "sdf"):
        _check_types(doc, {"path": str, "text": str})
        if "path" in doc:
            return doc["path"]
        if "text" in doc:
            return _inline(doc, "text")
        raise FrontendError(
            f"model description for front-end {kind!r} needs a "
            f"'path' or 'text' field")
    if kind == "deployment":
        _check_types(doc, dict.fromkeys(
            ("application_path", "application_text", "deployment_path",
             "deployment_text", "place_variant", "name"), str))
        application = (doc.get("application_path") or
                       _inline(doc, "application_text"))
        deployment = (doc.get("deployment_path") or
                      _inline(doc, "deployment_text"))
        if application is None or deployment is None:
            raise FrontendError(
                "a deployment description needs application_path/"
                "application_text and deployment_path/deployment_text")
        return DeploymentSpec(application=application, deployment=deployment,
                              place_variant=doc.get("place_variant",
                                                    "default"),
                              name=doc.get("name"))
    if kind == "pam":
        _check_types(doc, {"configuration": str, "capacity": int,
                           "cycles": dict})
        if not all(type(count) is int
                   for count in (doc.get("cycles") or {}).values()):
            raise FrontendError(
                "model description field 'cycles' must map agent names "
                "to integers")
        return PamConfiguration(
            configuration=doc.get("configuration", "infinite"),
            capacity=doc.get("capacity", 1), cycles=doc.get("cycles"))
    if kind in ("ccsl", "moccml"):
        _check_types(doc, {"name": str, "events": list,
                           "constraints": list, "library_text": str})
        events = doc.get("events")
        if events is None or not all(isinstance(e, str) for e in events):
            raise FrontendError(
                f"a {kind} description needs 'events', a list of event "
                f"names")
        for item in doc.get("constraints", []):
            if not _is_constraint(item):
                raise FrontendError(
                    f"a {kind} constraint must be an object with a "
                    f"'relation' name and an 'args' list, or a "
                    f"[relation, args] list, not {item!r:.60}")
        if kind == "ccsl":
            return CcslSpec(name=doc.get("name", "ccsl-spec"),
                            events=list(events),
                            constraints=list(doc.get("constraints", [])))
        return MoccmlSpec(name=doc.get("name", "moccml-spec"),
                          events=list(events),
                          constraints=list(doc.get("constraints", [])),
                          library_text=doc.get("library_text"))
    raise FrontendError(f"unknown front-end {kind!r} in model description")


def _check_types(doc: dict, types: dict, what: str = "field") -> None:
    """Refuse, naming it, a field (or option) of *doc* that is not of
    its JSON type in *types*."""
    for key, kind in types.items():
        value = doc.get(key)
        if value is not None and (not isinstance(value, kind) or
                                  isinstance(value, bool) and kind is int):
            raise FrontendError(
                f"model description {what} {key!r} must be a JSON "
                f"{_JSON_NAMES[kind]}, not {value!r:.60}")


_JSON_NAMES = {str: "string", int: "integer", dict: "object",
               list: "array"}


def _is_constraint(item) -> bool:
    """A constraint in JSON: ``{"relation", "args", "label"}`` or
    ``[relation, args]`` (plus an optional label)."""
    if isinstance(item, dict):
        return isinstance(item.get("relation"), str) \
            and isinstance(item.get("args", []), list)
    return isinstance(item, list) and len(item) in (2, 3) \
        and isinstance(item[0], str) and isinstance(item[1], list)


def _inline(doc: dict, key: str) -> str | None:
    """A ``*_text`` field: inline source holding a ``{`` block."""
    text = doc.get(key)
    if text is not None and "{" not in text:
        raise FrontendError(
            f"model description field {key!r} must hold inline source "
            f"(no '{{' block in {text!r:.40}); a file goes in the "
            f"matching *path field")
    return text


# ---------------------------------------------------------------------------
# built-in front-ends
# ---------------------------------------------------------------------------

def _is_sigpml_text(source) -> bool:
    return isinstance(source, str) and "application" in source \
        and "{" in source


def _is_sigpml_path(source) -> bool:
    if hasattr(source, "__fspath__"):
        return True
    return isinstance(source, str) and "{" not in source and (
        source.endswith(".sigpml") or os.path.isfile(source))


@register_frontend(
    "execution-model",
    matches=lambda source: isinstance(source, ExecutionModel),
    priority=100)
def _load_execution_model(source: ExecutionModel) -> ModelHandle:
    """A bare execution model — the engine-level escape hatch."""
    return ModelHandle(name=source.name, frontend="execution-model",
                       execution_model=source)


@register_frontend(
    "sigpml",
    matches=lambda source: _is_sigpml_text(source) or _is_sigpml_path(source),
    priority=50)
def _load_sigpml(source, place_variant: str = "default",
                 mapping_text: str | None = None) -> ModelHandle:
    """SigPML concrete syntax: inline text, a path, or a Path object."""
    from repro.sdf.mapping import weave_sdf
    from repro.sdf.parser import parse_sigpml

    filename = None
    text = source
    if not _is_sigpml_text(source):
        filename = os.fspath(source)
        with open(filename, encoding="utf-8") as handle:
            text = handle.read()
    model, app = parse_sigpml(text, filename=filename)
    woven = weave_sdf(model, place_variant=place_variant,
                      mapping_text=mapping_text)
    options: dict = {"place_variant": place_variant}
    if mapping_text is not None:
        options["mapping_text"] = mapping_text
    return ModelHandle(
        name=app.name, frontend="sigpml",
        execution_model=woven.execution_model,
        application=app, source_model=model, weave=woven,
        metadata={"place_variant": place_variant,
                  **({"path": filename} if filename else {})},
        # ship the *text*, not the path: workers rebuild exactly what
        # the parent loaded even if the file changes underneath
        source_doc={"frontend": "sigpml", "text": text,
                    "options": options})


def _is_sdf_pair(source) -> bool:
    from repro.kernel.model import Model
    return (isinstance(source, tuple) and len(source) == 2
            and isinstance(source[0], Model))


@register_frontend(
    "sdf",
    matches=lambda source: type(source).__name__ == "SdfBuilder"
    or _is_sdf_pair(source),
    priority=60)
def _load_sdf(source, place_variant: str = "default",
              mapping_text: str | None = None) -> ModelHandle:
    """Programmatic SDF: an :class:`SdfBuilder` or its ``build()`` pair."""
    from repro.sdf.mapping import weave_sdf

    if hasattr(source, "build"):
        model, app = source.build()
    else:
        model, app = source
    woven = weave_sdf(model, place_variant=place_variant,
                      mapping_text=mapping_text)
    return ModelHandle(
        name=app.name, frontend="sdf",
        execution_model=woven.execution_model,
        application=app, source_model=model, weave=woven,
        metadata={"place_variant": place_variant})


@register_frontend(
    "deployment",
    matches=lambda source: isinstance(source, DeploymentSpec)
    or type(source).__name__ == "DeploymentResult",
    priority=70)
def _load_deployment(source) -> ModelHandle:
    """A deployed application: :class:`DeploymentSpec` or a ready
    :class:`~repro.deployment.weaver.DeploymentResult`."""
    from repro.deployment.weaver import DeploymentResult, deploy

    if isinstance(source, DeploymentResult):
        app = None
        name = source.platform.name
        result = source
        spec_meta = {}
        source_doc = None
    else:
        base = load(source.application,
                    place_variant=source.place_variant)
        if base.application is None or base.source_model is None:
            raise FrontendError(
                "the application of a DeploymentSpec must resolve to a "
                "SigPML application (sigpml or sdf front-end)")
        platform, allocation, deployment_text = _resolve_deployment(
            source.deployment)
        result = deploy(base.source_model, base.application, platform,
                        allocation, place_variant=source.place_variant)
        app = base.application
        name = source.name or f"{base.name}@{platform.name}"
        spec_meta = {"place_variant": source.place_variant}
        source_doc = None
        if deployment_text is not None and base.source_doc is not None \
                and "text" in base.source_doc:
            source_doc = {"frontend": "deployment",
                          "application_text": base.source_doc["text"],
                          "deployment_text": deployment_text,
                          "place_variant": source.place_variant,
                          "options": {}}
            if source.name is not None:
                source_doc["name"] = source.name
    return ModelHandle(
        name=name, frontend="deployment",
        execution_model=result.execution_model,
        application=app, weave=result.weave, deployment=result,
        metadata={"platform": result.platform.name,
                  "mutexes": len(result.mutexes),
                  "comm_delays": len(result.comm_delays), **spec_meta},
        source_doc=source_doc)


def _resolve_deployment(deployment):
    """(Platform, Allocation, source text or None) from a pair, text,
    or path — the text (when there is one) feeds the handle's
    ``source_doc`` so deployed models stay process-shippable."""
    from repro.deployment.parser import parse_deployment

    if isinstance(deployment, tuple) and len(deployment) == 2 \
            and not isinstance(deployment[0], str):
        return deployment[0], deployment[1], None
    filename = None
    text = deployment
    if isinstance(deployment, str) and "{" not in deployment \
            or hasattr(deployment, "__fspath__"):
        filename = os.fspath(deployment)
        with open(filename, encoding="utf-8") as handle:
            text = handle.read()
    platform, allocation = parse_deployment(text, filename=filename)
    if platform is None or allocation is None:
        raise FrontendError(
            "the deployment document needs both a platform and an "
            "allocation block")
    return platform, allocation, text


@register_frontend(
    "pam",
    matches=lambda source: isinstance(source, PamConfiguration)
    or (isinstance(source, str) and source.startswith("pam:")),
    priority=80)
def _load_pam(source) -> ModelHandle:
    """A PAM study configuration: ``PamConfiguration`` or ``"pam:dual"``."""
    from repro.pam.application import build_pam_application
    from repro.pam.experiments import CONFIGURATIONS, build_configuration

    if isinstance(source, str):
        source = PamConfiguration(configuration=source.split(":", 1)[1])
    if source.configuration not in CONFIGURATIONS:
        raise FrontendError(
            f"unknown PAM configuration {source.configuration!r}; "
            f"expected one of {', '.join(CONFIGURATIONS)}")
    built = build_pam_application(capacity=source.capacity,
                                  cycles=source.cycles)
    execution_model = build_configuration(
        source.configuration, capacity=source.capacity,
        cycles=source.cycles, built=built)
    _model, app = built
    source_doc = {"frontend": "pam",
                  "configuration": source.configuration,
                  "capacity": source.capacity}
    if source.cycles is not None:
        source_doc["cycles"] = dict(source.cycles)
    return ModelHandle(
        name=f"pam-{source.configuration}", frontend="pam",
        execution_model=execution_model, application=app,
        metadata={"configuration": source.configuration,
                  "capacity": source.capacity},
        source_doc=source_doc)


def _constraint_docs(constraints) -> list[dict]:
    """CCSL/MoCCML constraint specs in their JSON mapping form (tuples
    normalized), for handle source docs."""
    docs = []
    for item in constraints:
        if isinstance(item, dict):
            doc = {"relation": item["relation"],
                   "args": list(item.get("args", []))}
            if item.get("label") is not None:
                doc["label"] = item["label"]
        else:
            doc = {"relation": item[0], "args": list(item[1])}
            if len(item) > 2 and item[2] is not None:
                doc["label"] = item[2]
        docs.append(doc)
    return docs


def _instantiate_constraints(registry, events, constraints):
    """Shared CCSL/MoCCML helper: build an ExecutionModel from specs."""
    runtimes = []
    for item in constraints:
        if isinstance(item, dict):
            relation = item["relation"]
            arguments = list(item.get("args", []))
            label = item.get("label")
        else:
            relation, arguments = item[0], list(item[1])
            label = item[2] if len(item) > 2 else None
        runtimes.append(registry.instantiate(relation, arguments,
                                             label=label))
    return runtimes


@register_frontend(
    "ccsl",
    matches=lambda source: isinstance(source, CcslSpec),
    priority=70)
def _load_ccsl(source: CcslSpec) -> ModelHandle:
    """A CCSL specification over the kernel relation library."""
    from repro.ccsl.library import kernel_library
    from repro.moccml.library import LibraryRegistry

    registry = LibraryRegistry([kernel_library()])
    runtimes = _instantiate_constraints(registry, source.events,
                                        source.constraints)
    execution_model = ExecutionModel(source.events, runtimes,
                                     name=source.name)
    return ModelHandle(name=source.name, frontend="ccsl",
                       execution_model=execution_model,
                       metadata={"relations": len(runtimes)},
                       source_doc={
                           "frontend": "ccsl", "name": source.name,
                           "events": list(source.events),
                           "constraints": _constraint_docs(
                               source.constraints)})


@register_frontend(
    "moccml",
    matches=lambda source: isinstance(source, MoccmlSpec),
    priority=70)
def _load_moccml(source: MoccmlSpec) -> ModelHandle:
    """Raw MoCCML: user-defined libraries plus instantiations."""
    from repro.ccsl.library import kernel_library
    from repro.moccml.library import LibraryRegistry
    from repro.moccml.text import parse_library
    from repro.moccml.validate import assert_valid_library

    registry = LibraryRegistry([kernel_library()])
    libraries = []
    if source.library_text:
        library = parse_library(source.library_text)
        assert_valid_library(library, registry)
        registry.register(library)
        libraries.append(library.name)
    runtimes = _instantiate_constraints(registry, source.events,
                                        source.constraints)
    execution_model = ExecutionModel(source.events, runtimes,
                                     name=source.name)
    source_doc = {"frontend": "moccml", "name": source.name,
                  "events": list(source.events),
                  "constraints": _constraint_docs(source.constraints)}
    if source.library_text is not None:
        source_doc["library_text"] = source.library_text
    return ModelHandle(name=source.name, frontend="moccml",
                       execution_model=execution_model,
                       metadata={"libraries": libraries,
                                 "relations": len(runtimes)},
                       source_doc=source_doc)
