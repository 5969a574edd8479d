"""Run artifacts: declarative :class:`RunSpec` in, uniform
:class:`RunResult` out — both with lossless JSON round-trips.

A spec says *what* to run (simulate / explore / campaign / analyze),
against which model handle, with which parameters; a result carries a
JSON-serializable payload subsuming the trace, state-space, campaign
and analysis reports the individual drivers used to return. Serialized
results are the hand-off format for external tooling (dashboards,
formal-verification back ends, diffing two runs).

What a spec of each kind may say is declared once, in :data:`SCHEMA`;
the spec's constructor, ``from_doc`` and ``to_doc`` are loops over it.

Serialization is canonical — sorted keys, fixed separators — so two
equal results have byte-identical ``to_json()`` output; the batch
runner's determinism tests rely on this.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.ctl import PROPERTY_STRATEGIES
from repro.engine.policies import SchedulingPolicy
from repro.engine.trace import Trace
from repro.errors import SerializationError
from repro.workbench.policies import PolicyError, policy_doc, \
    policy_keywords

#: doc format version for both artifacts
_FORMAT = 1


def _is_policy(value) -> bool:
    # an instance passes here and is refused by to_doc (policy_doc)
    return isinstance(value, (str, Mapping, SchedulingPolicy))


def _list_of(test):
    return lambda value: isinstance(value, (list, tuple)) \
        and all(test(item) for item in value)


#: JSON type name -> (test, what the refusal says a value must be)
_TYPES = {
    # type(...) is int: a bool is not a count
    "count": (lambda value: type(value) is int and value >= 0,
              "an integer >= 0"),
    "flag": (lambda value: isinstance(value, bool), "true or false"),
    "string": (lambda value: isinstance(value, str), "a string"),
    "text": (lambda value: isinstance(value, str) and value != "",
             "a non-empty string"),
    "strings": (_list_of(lambda item: isinstance(item, str)),
                "a list of strings"),
    "policy": (_is_policy, "a policy name or object"),
    "policies": (_list_of(_is_policy),
                 "a list of policy names or objects"),
}


@dataclass(frozen=True)
class Field:
    """One row of :data:`SCHEMA`: a field's document *key*, its JSON
    *type* (a key of ``_TYPES``), the *default* an absent or ``null``
    field takes, the allowed *choices* (empty: any), whether it is
    *written* even at its default (then, without a default, it is
    required), whether it is an *option* (under the document's
    ``options`` object) and its :class:`RunSpec` *attr* if not *key*."""

    key: str
    type: str
    default: object = None
    choices: tuple = ()
    written: bool = False
    option: bool = False
    attr: str = ""

    def __post_init__(self):
        if not self.attr:
            object.__setattr__(self, "attr", self.key)

    def check(self, kind: str, value):
        """*value* as the spec stores it, or a refusal naming the field."""
        test, expected = _TYPES[self.type]
        where = "option" if self.option else "field"
        if not test(value):
            raise SerializationError(
                f"{kind} spec {where} {self.key!r} must be {expected}, "
                f"not {value!r:.60}")
        if self.choices and value not in self.choices:
            raise SerializationError(
                f"{kind} spec {where} {self.key!r} must be one of "
                f"{', '.join(self.choices)}, not {value!r:.60}")
        policies = {"policy": [value], "policies": value}.get(self.type, [])
        for item in policies:
            try:  # an instance passes here and is refused by to_doc
                if not isinstance(item, SchedulingPolicy):
                    policy_keywords(item)
            except PolicyError as exc:
                raise SerializationError(
                    f"{kind} spec {where} {self.key!r}: {exc}") from None
        return list(value) if self.type in ("strings", "policies") \
            else value

    def encode(self, value):
        """The JSON form of a stored *value*."""
        if self.type == "policy":
            return policy_doc(value)
        if self.type == "policies":
            return [policy_doc(item) for item in value]
        return list(value) if self.type == "strings" else value


_MAX_STATES = Field("max_states", "count", 10_000, written=True)
_MAX_DEPTH = Field("max_depth", "count")
_INCLUDE_EMPTY = Field("include_empty", "flag", False)

#: kind -> the fields it reads. The one declaration of what a spec may
#: say: its defaults, its JSON types, its check strategies (the
#: engine's own list), its options and its document layout.
SCHEMA: dict[str, tuple[Field, ...]] = {
    kind: (Field("model", "string", written=True),
           Field("label", "string")) + rows
    for kind, rows in {
        "simulate": (
            Field("policy", "policy", "asap", written=True),
            Field("steps", "count", 20, written=True),
            Field("include_trace", "flag", True, option=True)),
        "explore": (
            _MAX_STATES, _MAX_DEPTH, _INCLUDE_EMPTY,
            Field("maximal_only", "flag", False),
            Field("include_graph", "flag", False, option=True)),
        "campaign": (
            Field("steps", "count", 40, written=True),
            Field("watch", "strings"),
            Field("policies", "policies")),
        "analyze": (),
        "check": (
            Field("property", "text", written=True, attr="prop"),
            _MAX_STATES, _MAX_DEPTH, _INCLUDE_EMPTY,
            Field("strategy", "string", "auto", PROPERTY_STRATEGIES),
            Field("include_witness", "flag", True, option=True)),
        "lint": (Field("rules", "strings"),),
    }.items()}

#: The spec kinds, in presentation order.
KINDS = tuple(SCHEMA)

#: kind -> (RunSpec attribute, document key) of each field it does not read
_KEYS = {row.attr: row.key for rows in SCHEMA.values() for row in rows}
_UNREAD = {kind: [(attr, key) for attr, key in _KEYS.items()
                  if attr not in {row.attr for row in rows}]
           for kind, rows in SCHEMA.items()}


@dataclass
class RunSpec:
    """A declarative description of one engine run.

    ``model`` names a workbench handle (or is a loadable source token,
    e.g. a ``.sigpml`` path). Which other fields a ``kind`` reads, and
    their defaults, is :data:`SCHEMA`'s business: a field left ``None``
    takes its kind's default, and a field the kind does not read must
    stay ``None`` — anything else is refused with a
    :class:`~repro.errors.SerializationError` naming it.
    """

    kind: str
    model: str
    label: str | None = None
    # -- simulate / campaign -----------------------------------------------
    policy: object = None
    steps: int | None = None
    # -- explore / check ---------------------------------------------------
    max_states: int | None = None
    max_depth: int | None = None
    include_empty: bool | None = None
    maximal_only: bool | None = None
    # -- check -------------------------------------------------------------
    prop: str | None = None
    strategy: str | None = None
    # -- lint --------------------------------------------------------------
    #: restrict to specific rule IDs (``None`` runs every applicable rule)
    rules: list[str] | None = None
    # -- campaign ----------------------------------------------------------
    watch: list[str] | None = None
    policies: list | None = None
    # -- options (the document's ``options`` object) -----------------------
    include_trace: bool | None = None
    include_graph: bool | None = None
    include_witness: bool | None = None

    def __post_init__(self):
        rows = _schema(self.kind)
        for attr, key in _UNREAD[self.kind]:
            if getattr(self, attr) is not None:
                raise SerializationError(
                    f"{self.kind} specs do not read {key!r}")
        for row in rows:
            value = getattr(self, row.attr)
            if value is not None:
                setattr(self, row.attr, row.check(self.kind, value))
            elif row.written and row.default is None:
                raise SerializationError(
                    f"{self.kind} specs need a {row.key!r}")
            else:
                setattr(self, row.attr, row.default)

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        """The canonical JSON document of this spec."""
        doc: dict = {"format": _FORMAT, "kind": self.kind}
        options: dict = {}
        for row in SCHEMA[self.kind]:
            value = getattr(self, row.attr)
            if row.written or value != row.default:
                (options if row.option else doc)[row.key] = row.encode(value)
        if options:
            doc["options"] = options
        return doc

    def to_json(self) -> str:
        return _dumps(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "RunSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise SerializationError("a run spec document needs a 'kind'")
        if doc.get("format", _FORMAT) != _FORMAT:
            raise SerializationError(
                f"unsupported run-spec format {doc.get('format')!r}")
        kind = doc["kind"]
        rows = _schema(kind)
        options = doc.get("options", {})
        if not isinstance(options, dict):
            raise SerializationError(
                f"a run spec's 'options' must be an object, not "
                f"{options!r:.60}")
        fields = {row.key for row in rows if not row.option}
        _refuse_unknown("run-spec field", kind,
                        set(doc) - fields - {"format", "kind", "options"},
                        fields)
        _refuse_unknown("option", kind, set(options),
                        {row.key for row in rows if row.option})
        return cls(kind=kind, **{
            row.attr: (options if row.option else doc).get(row.key)
            for row in rows})

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_doc(_loads(text, "run spec"))


def _schema(kind) -> tuple[Field, ...]:
    if kind not in KINDS:  # a tuple: unhashable kinds compare, not hash
        raise SerializationError(
            f"unknown run kind {kind!r}; expected one of "
            f"{', '.join(KINDS)}")
    return SCHEMA[kind]


def _refuse_unknown(what: str, kind: str, given: set, known: set) -> None:
    unknown = given - known
    if unknown:
        raise SerializationError(
            f"unknown {what}(s) {sorted(unknown)} for kind {kind!r}; it "
            f"reads {', '.join(sorted(known)) or 'none'}")


# The helpers below build one kind each; an argument left None takes
# the default SCHEMA declares for that kind.

def SimulateSpec(model: str, policy: object = None,
                 steps: int | None = None, label: str | None = None,
                 include_trace: bool | None = None) -> RunSpec:
    """A simulation spec: one policy, a step budget (*include_trace*
    False leaves the step list out of the payload)."""
    return RunSpec("simulate", model, label=label, policy=policy,
                   steps=steps, include_trace=include_trace)


def ExploreSpec(model: str, max_states: int | None = None,
                max_depth: int | None = None,
                include_empty: bool | None = None,
                maximal_only: bool | None = None, label: str | None = None,
                include_graph: bool | None = None) -> RunSpec:
    """An exhaustive-exploration spec (see
    :func:`repro.engine.explorer.explore`). *include_graph* puts the
    whole state space in the payload.
    """
    return RunSpec("explore", model, label=label, max_states=max_states,
                   max_depth=max_depth, include_empty=include_empty,
                   maximal_only=maximal_only, include_graph=include_graph)


def CampaignSpec(model: str, steps: int | None = None,
                 watch: list[str] | None = None,
                 policies: list | None = None,
                 label: str | None = None) -> RunSpec:
    """A policy-comparison campaign spec."""
    return RunSpec("campaign", model, label=label, steps=steps,
                   watch=watch, policies=policies)


def AnalyzeSpec(model: str, label: str | None = None) -> RunSpec:
    """A static-analysis spec (SDF theory: repetition vector, PASS)."""
    return RunSpec("analyze", model, label=label)


def LintSpec(model: str, rules: list[str] | None = None,
             label: str | None = None) -> RunSpec:
    """A static-analysis (lint) spec.

    Runs every applicable :mod:`repro.lint` rule on the loaded handle
    — no engine stepping — and returns the
    :class:`~repro.lint.LintReport` document (``ok``, per-severity
    counts, diagnostics with stable rule IDs). *rules* restricts to
    specific rule IDs.
    """
    return RunSpec("lint", model, label=label, rules=rules)


def CheckSpec(model: str, prop: str, strategy: str | None = None,
              max_states: int | None = None, max_depth: int | None = None,
              include_empty: bool | None = None, label: str | None = None,
              include_witness: bool | None = None) -> RunSpec:
    """A temporal-property check spec.

    *prop* is the property text of :func:`repro.engine.ctl.\
    parse_property` (e.g. ``"AG !deadlock"``, ``"AF occurs(sink.start)"``).
    *strategy* picks the backend (``"explicit"``/``"symbolic"``/
    ``"auto"``); the explicit budget is ``max_states``/``max_depth``
    and an exhausted budget yields the ``"unknown"`` verdict — never an
    unsound definitive one. The result payload
    carries the three-valued verdict, the backend that answered, and —
    when the top-level operator admits one and *include_witness* is not
    False — a witness/counterexample replayable via ``result.trace()``.
    """
    return RunSpec("check", model, label=label, prop=prop,
                   strategy=strategy, max_states=max_states,
                   max_depth=max_depth, include_empty=include_empty,
                   include_witness=include_witness)


@dataclass
class RunResult:
    """The uniform outcome of one spec: status plus a JSON payload."""

    kind: str
    model: str
    status: str = "ok"
    label: str | None = None
    spec: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    error: Optional[str] = None
    #: True when this result was served from an artifact store instead
    #: of computed. Deliberately NOT part of :meth:`to_doc`: a cache
    #: hit must be byte-identical to the cold computation, so the flag
    #: is transport metadata (the CLI reports it out of band).
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # -- payload accessors -------------------------------------------------

    def trace(self) -> Trace:
        """Rebuild the simulation/witness trace from the payload."""
        if "trace" not in self.data:
            raise SerializationError(
                f"result of kind {self.kind!r} carries no trace")
        return Trace.from_steps(self.data["events"], self.data["trace"])

    def statespace(self):
        """Rebuild the full state space (needs ``include_graph``)."""
        from repro.engine.statespace import StateSpace
        if "statespace" not in self.data:
            raise SerializationError(
                "result carries no state-space graph; run the explore "
                "spec with include_graph=True")
        return StateSpace.from_doc(self.data["statespace"])

    def campaign_rows(self):
        """Rebuild the campaign rows from the payload."""
        from repro.engine.campaign import CampaignRow
        if "rows" not in self.data:
            raise SerializationError(
                f"result of kind {self.kind!r} carries no campaign rows")
        return [CampaignRow.from_dict(row) for row in self.data["rows"]]

    def summary(self) -> str:
        """A one-line human summary (the CLI batch listing)."""
        head = f"{self.kind:<9} {self.label or self.model:<24}"
        if not self.ok:
            return f"{head} ERROR: {self.error}"
        data = self.data
        if self.kind == "simulate":
            return (f"{head} {data['steps_run']} step(s), "
                    f"policy={data['policy']}, "
                    f"deadlocked={data['deadlocked']}")
        if self.kind == "explore":
            summary = data["summary"]
            return (f"{head} {summary['states']} state(s), "
                    f"{summary['transitions']} transition(s), "
                    f"deadlocks={summary['deadlocks']}"
                    f"{' (truncated)' if summary.get('truncated') else ''}")
        if self.kind == "campaign":
            return f"{head} {len(data['rows'])} policy row(s)"
        if self.kind == "lint":
            counts = data["counts"]
            return (f"{head} {'clean' if data['ok'] else 'ERRORS'} "
                    f"({counts['error']} error(s), "
                    f"{counts['warning']} warning(s), "
                    f"{counts['info']} info) over {data['rules_run']} "
                    f"rule(s)")
        if self.kind == "check":
            tail = ""
            if data.get("witness_kind"):
                tail = f", {data['witness_kind']} of {len(data['trace'])} " \
                       f"step(s)"
            return (f"{head} {data['verdict'].upper()} "
                    f"[{data['strategy']}, {data['states']} state(s)"
                    f"{', truncated' if data.get('truncated') else ''}]"
                    f"{tail}")
        return (f"{head} consistent={data['consistent']}, "
                f"deadlock_free={data.get('deadlock_free', False)}")

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        import repro
        doc = {"format": _FORMAT, "kind": self.kind, "model": self.model,
               "status": self.status, "spec": self.spec,
               "data": self.data, "version": repro.__version__}
        if self.label is not None:
            doc["label"] = self.label
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def to_json(self) -> str:
        return _dumps(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "RunResult":
        """Rebuild a result; the writer's ``version`` stamp is accepted
        from any build (the payload format itself is versioned by
        ``format``)."""
        if not isinstance(doc, dict) or doc.get("kind") not in KINDS:
            raise SerializationError("expected a run-result document")
        if doc.get("format") != _FORMAT:
            raise SerializationError(
                f"unsupported run-result format {doc.get('format')!r}")
        return cls(kind=doc["kind"], model=doc["model"],
                   status=doc.get("status", "ok"), label=doc.get("label"),
                   spec=dict(doc.get("spec", {})),
                   data=dict(doc.get("data", {})), error=doc.get("error"))

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_doc(_loads(text, "run result"))


def _dumps(doc) -> str:
    """Canonical JSON: sorted keys, fixed separators, 2-space indent."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid {what} JSON: {exc}") from exc
