"""Run artifacts: declarative :class:`RunSpec` in, uniform
:class:`RunResult` out — both with lossless JSON round-trips.

A spec says *what* to run (simulate / explore / campaign / analyze),
against which model handle, with which parameters; a result carries a
JSON-serializable payload subsuming the trace, state-space, campaign
and analysis reports the individual drivers used to return. Serialized
results are the hand-off format for external tooling (dashboards,
formal-verification back ends, diffing two runs).

Serialization is canonical — sorted keys, fixed separators — so two
equal results have byte-identical ``to_json()`` output; the batch
runner's determinism tests rely on this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.trace import Trace
from repro.errors import SerializationError
from repro.workbench.policies import policy_doc

#: The spec kinds, in presentation order.
KINDS = ("simulate", "explore", "campaign", "analyze", "check", "lint")

#: doc format version for both artifacts
_FORMAT = 1


@dataclass
class RunSpec:
    """A declarative description of one engine run.

    ``model`` names a workbench handle (or is a loadable source token,
    e.g. a ``.sigpml`` path). Fields irrelevant to the ``kind`` are
    ignored; ``options`` carries kind-specific extras
    (``include_graph`` for explore, ``include_trace`` for simulate).
    """

    kind: str
    model: str
    label: str | None = None
    # -- simulate ----------------------------------------------------------
    policy: object = "asap"
    steps: int = 20
    # -- explore / check ---------------------------------------------------
    max_states: int = 10_000
    max_depth: int | None = None
    include_empty: bool = False
    maximal_only: bool = False
    strategy: str = "explicit"
    # -- check -------------------------------------------------------------
    prop: str | None = None
    # -- lint --------------------------------------------------------------
    #: restrict to specific rule IDs (``None`` runs every applicable rule)
    rules: list[str] | None = None
    # -- campaign ----------------------------------------------------------
    watch: list[str] | None = None
    policies: list | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SerializationError(
                f"unknown run kind {self.kind!r}; expected one of "
                f"{', '.join(KINDS)}")

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        """The canonical JSON document of this spec."""
        doc: dict = {"format": _FORMAT, "kind": self.kind,
                     "model": self.model}
        if self.label is not None:
            doc["label"] = self.label
        if self.options:
            doc["options"] = dict(self.options)
        if self.kind == "simulate":
            doc["policy"] = policy_doc(self.policy)
            doc["steps"] = self.steps
        elif self.kind == "explore":
            doc["max_states"] = self.max_states
            if self.max_depth is not None:
                doc["max_depth"] = self.max_depth
            if self.include_empty:
                doc["include_empty"] = True
            if self.maximal_only:
                doc["maximal_only"] = True
            if self.strategy != "explicit":
                doc["strategy"] = self.strategy
        elif self.kind == "check":
            if self.prop is None:
                raise SerializationError(
                    "a check spec needs a 'property' (the temporal "
                    "property text, e.g. 'AG !deadlock')")
            doc["property"] = self.prop
            doc["max_states"] = self.max_states
            if self.max_depth is not None:
                doc["max_depth"] = self.max_depth
            if self.include_empty:
                doc["include_empty"] = True
            if self.strategy != "auto":  # the check default, cf. from_doc
                doc["strategy"] = self.strategy
        elif self.kind == "lint":
            if self.rules is not None:
                doc["rules"] = list(self.rules)
        elif self.kind == "campaign":
            doc["steps"] = self.steps
            if self.watch is not None:
                doc["watch"] = list(self.watch)
            if self.policies is not None:
                doc["policies"] = [policy_doc(p) for p in self.policies]
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
        if "model" not in doc:
            raise SerializationError("a run spec document needs a 'model'")
        known = {"format", "kind", "model", "label", "policy", "steps",
                 "max_states", "max_depth", "include_empty", "maximal_only",
                 "strategy", "property", "rules", "watch", "policies",
                 "options"}
        unknown = set(doc) - known
        if unknown:
            raise SerializationError(
                f"unknown run-spec field(s): {sorted(unknown)}")
        return cls(
            kind=doc["kind"], model=doc["model"], label=doc.get("label"),
            policy=doc.get("policy", "asap"), steps=doc.get("steps", 20),
            max_states=doc.get("max_states", 10_000),
            max_depth=doc.get("max_depth"),
            include_empty=bool(doc.get("include_empty", False)),
            maximal_only=bool(doc.get("maximal_only", False)),
            # check defaults to auto (as CheckSpec/CLI do); explore keeps
            # its historical explicit default
            strategy=doc.get("strategy",
                             "auto" if doc["kind"] == "check"
                             else "explicit"),
            prop=doc.get("property"),
            rules=(list(doc["rules"]) if doc.get("rules") is not None
                   else None),
            watch=(list(doc["watch"]) if doc.get("watch") is not None
                   else None),
            policies=(list(doc["policies"])
                      if doc.get("policies") is not None else None),
            options=dict(doc.get("options", {})))

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_doc(_loads(text, "run spec"))


def SimulateSpec(model: str, policy: object = "asap", steps: int = 20,
                 label: str | None = None, **options) -> RunSpec:
    """A simulation spec: one policy, a step budget."""
    return RunSpec(kind="simulate", model=model, policy=policy,
                   steps=steps, label=label, options=options)


def ExploreSpec(model: str, max_states: int = 10_000,
                max_depth: int | None = None, include_empty: bool = False,
                maximal_only: bool = False, strategy: str = "explicit",
                label: str | None = None, **options) -> RunSpec:
    """An exhaustive-exploration spec.

    *strategy* is ``"explicit"``, ``"symbolic"`` or ``"auto"`` — see
    :func:`repro.engine.explorer.explore`; the result is identical
    either way.
    """
    return RunSpec(kind="explore", model=model, max_states=max_states,
                   max_depth=max_depth, include_empty=include_empty,
                   maximal_only=maximal_only, strategy=strategy,
                   label=label, options=options)


def CampaignSpec(model: str, steps: int = 40,
                 watch: list[str] | None = None,
                 policies: list | None = None,
                 label: str | None = None, **options) -> RunSpec:
    """A policy-comparison campaign spec."""
    return RunSpec(kind="campaign", model=model, steps=steps, watch=watch,
                   policies=policies, label=label, options=options)


def AnalyzeSpec(model: str, label: str | None = None, **options) -> RunSpec:
    """A static-analysis spec (SDF theory: repetition vector, PASS)."""
    return RunSpec(kind="analyze", model=model, label=label,
                   options=options)


def LintSpec(model: str, rules: list[str] | None = None,
             label: str | None = None, **options) -> RunSpec:
    """A static-analysis (lint) spec.

    Runs every applicable :mod:`repro.lint` rule on the loaded handle
    — no engine stepping — and returns the
    :class:`~repro.lint.LintReport` document (``ok``, per-severity
    counts, diagnostics with stable rule IDs). *rules* restricts to
    specific rule IDs.
    """
    return RunSpec(kind="lint", model=model,
                   rules=list(rules) if rules is not None else None,
                   label=label, options=options)


def CheckSpec(model: str, prop: str, strategy: str = "auto",
              max_states: int = 10_000, max_depth: int | None = None,
              include_empty: bool = False,
              label: str | None = None, **options) -> RunSpec:
    """A temporal-property check spec.

    *prop* is the property text of :func:`repro.engine.ctl.\
    parse_property` (e.g. ``"AG !deadlock"``, ``"AF occurs(sink.start)"``).
    *strategy* picks the backend (``"explicit"``/``"symbolic"``/
    ``"auto"``); the explicit budget is ``max_states``/``max_depth`` and
    an exhausted budget yields the ``"unknown"`` verdict — never an
    unsound definitive one. The result payload carries the
    three-valued verdict, the backend that answered, and — when the
    top-level operator admits one — a witness/counterexample replayable
    via ``result.trace()``.
    """
    return RunSpec(kind="check", model=model, prop=prop, strategy=strategy,
                   max_states=max_states, max_depth=max_depth,
                   include_empty=include_empty, label=label,
                   options=options)


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
