"""Diagnostics core: :class:`Diagnostic`, the rule registry, reports.

A *rule* is a function from a loaded
:class:`~repro.workbench.frontends.ModelHandle` to diagnostics; it
must never step the engine (no simulation, exploration or BDD
compilation — the whole point is admission-time cost). Rules register
through :func:`register_rule` with a stable ID, a severity and the
handle artifact they need (``application``, ``execution_model``,
``deployment``, ``source_model``), mirroring how front-ends register
in :mod:`repro.workbench.frontends`. One function may serve several
IDs that share an analysis: stack ``@register_rule`` on it, once per
ID, and have it yield each diagnostic under its own ID.
:func:`lint_handle` runs each applicable function once per handle and
returns a deterministic :class:`LintReport`.

Severities carry a contract, not just a color:

``error``
    the model is defective and the claim is *engine-confirmable* —
    :mod:`repro.lint.crosscheck` replays every ERROR against the
    dynamic semantics (a predicted-dead event must satisfy
    ``AG !occurs(e)`` on the untruncated space, a predicted deadlock
    must satisfy ``EF deadlock``, …);
``warning``
    suspicious but not provably wrong statically;
``info``
    a derived fact worth surfacing (e.g. the repetition vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

SEVERITIES = ("error", "warning", "info")


class LintError(ReproError):
    """A lint request the analyzer cannot honor."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable rule ID, severity, element path, human
    message, machine payload.

    ``data`` may carry a ``confirm`` descriptor — the dynamic claim
    :mod:`repro.lint.crosscheck` replays against the engine (e.g.
    ``{"kind": "dead-event", "event": "a"}``).
    """

    rule: str
    severity: str
    path: str
    message: str
    data: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise LintError(
                f"unknown severity {self.severity!r}; expected one of "
                f"{', '.join(SEVERITIES)}")

    def to_doc(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "message": self.message,
            "data": self.data,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Diagnostic":
        return cls(rule=doc["rule"], severity=doc["severity"],
                   path=doc["path"], message=doc["message"],
                   data=doc.get("data") or {})


@dataclass(frozen=True)
class Rule:
    """A registered rule: metadata plus the analyzer function."""

    rule_id: str
    severity: str
    requires: str  # handle artifact: "application" | "execution_model" | ...
    summary: str
    confirm: str  # one-line dynamic-confirmation story
    frontends: tuple[str, ...] | None
    fn: object

    def applies_to(self, handle) -> bool:
        if getattr(handle, self.requires, None) is None:
            return False
        if (self.frontends is not None
                and getattr(handle, "frontend", None) not in self.frontends):
            return False
        return True


#: the rule registry, keyed by rule ID (sorted iteration = stable output)
RULES: dict[str, Rule] = {}


def register_rule(rule_id: str, severity: str, requires: str,
                  summary: str, confirm: str = "none",
                  frontends: tuple[str, ...] | None = None):
    """Decorator registering an analyzer function under *rule_id*.

    *requires* names the :class:`ModelHandle` attribute the rule reads
    (the rule is skipped on handles where it is ``None``); *frontends*
    optionally restricts to specific front-end names; *confirm* is the
    human-readable dynamic-confirmation story shown in the catalog.
    The function is returned unchanged, so decorators stack: a function
    registered under several IDs yields the diagnostics of all of them.
    """
    if severity not in SEVERITIES:
        raise LintError(
            f"rule {rule_id}: unknown severity {severity!r}")

    def decorate(fn):
        if rule_id in RULES:
            raise LintError(f"duplicate rule ID {rule_id}")
        RULES[rule_id] = Rule(
            rule_id=rule_id, severity=severity, requires=requires,
            summary=summary, confirm=confirm,
            frontends=tuple(frontends) if frontends else None, fn=fn)
        return fn

    return decorate


def _ensure_rules_loaded() -> None:
    """Import the rule modules (registration is an import side effect,
    deferred to avoid import cycles with the front-end loaders)."""
    from repro.lint import (  # noqa: F401
        rules_ccsl,
        rules_deployment,
        rules_encoding,
        rules_kernel,
        rules_moccml,
        rules_sdf,
    )


@dataclass
class LintReport:
    """Every diagnostic of one model, with severity totals."""

    model: str
    frontend: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    rules_run: int = 0

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """Clean means *no errors* (warnings and infos may remain)."""
        return not self.errors

    def to_doc(self) -> dict:
        counts = dict.fromkeys(SEVERITIES, 0)
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        return {
            "model": self.model,
            "frontend": self.frontend,
            "ok": self.ok,
            "rules_run": self.rules_run,
            "counts": counts,
            "diagnostics": [d.to_doc() for d in self.diagnostics],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LintReport":
        return cls(
            model=doc["model"], frontend=doc["frontend"],
            rules_run=doc.get("rules_run", 0),
            diagnostics=[Diagnostic.from_doc(d)
                         for d in doc.get("diagnostics", [])])


def lint_handle(handle, rules: tuple[str, ...] | None = None) -> LintReport:
    """Run every applicable registered rule on *handle*.

    *rules* optionally restricts to specific rule IDs. Each distinct
    rule function runs once, whichever of its IDs are requested, and
    only the diagnostics of requested, applicable IDs are kept;
    ``rules_run`` counts those IDs. A diagnostic whose ID is not
    registered to the function that yielded it, or whose severity is
    not that ID's, raises :class:`LintError`. Output order is
    deterministic: diagnostics as each function yields them, then a
    stable sort by (rule, path, message).
    """
    _ensure_rules_loaded()
    if rules is not None:
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise LintError(
                f"unknown lint rule(s): {', '.join(unknown)}")
    report = LintReport(
        model=getattr(handle, "name", "?"),
        frontend=getattr(handle, "frontend", "?"))
    kept: dict[object, set[str]] = {}  # rule function -> IDs to keep
    for rule_id in sorted(RULES):
        if rules is not None and rule_id not in rules:
            continue
        rule = RULES[rule_id]
        if not rule.applies_to(handle):
            continue
        report.rules_run += 1
        kept.setdefault(rule.fn, set()).add(rule_id)
    for fn, rule_ids in kept.items():
        for diagnostic in fn(handle):
            rule = RULES.get(diagnostic.rule)
            if (rule is None or rule.fn is not fn
                    or diagnostic.severity != rule.severity):
                owned = sorted(r.rule_id for r in RULES.values()
                               if r.fn is fn)
                raise LintError(
                    f"rule {'/'.join(owned)} emitted a diagnostic labeled "
                    f"{diagnostic.rule}/{diagnostic.severity}; rule "
                    f"metadata and diagnostics must agree")
            if diagnostic.rule in rule_ids:
                report.diagnostics.append(diagnostic)
    report.diagnostics.sort(key=lambda d: (d.rule, d.path, d.message))
    return report


def rule_catalog() -> list[dict]:
    """The machine-readable rule catalog (CLI ``repro lint --rules``)."""
    _ensure_rules_loaded()
    return [
        {
            "rule": rule.rule_id,
            "severity": rule.severity,
            "requires": rule.requires,
            "frontends": list(rule.frontends) if rule.frontends else None,
            "summary": rule.summary,
            "confirm": rule.confirm,
        }
        for _rule_id, rule in sorted(RULES.items())
    ]
