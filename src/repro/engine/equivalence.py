"""The differential oracle: the one place that decides whether analyses agree.

The engine answers through redundant backends — explicit exploration,
symbolic fixpoints (:data:`ORACLE_CONFIGS`) and the static
encodability predictor — and an answer is only as trustworthy as the
rule that makes them agree. ``repro selftest``, the fuzz oracle
(:mod:`repro.fuzz.oracle`) and the lint cross-check
(:mod:`repro.lint.crosscheck`) all apply the rules below; none keeps
its own copy.

State spaces — :func:`cross_check` explores one model and concretizes
its compiled symbolic system
(:meth:`~repro.engine.symbolic.TransitionSystem.to_statespace`):
states, transitions, truncation and serialized bytes must be
identical. On an untruncated full-branching exploration the symbolic
CTL checker's own sets — its reachable set, its ``deadlock`` set and
its ``occurs(e)`` atoms, which every symbolic check reads — must match
the explored state count and keys, deadlocks and dead events.
:func:`assert_equivalent` raises
:class:`~repro.errors.EquivalenceError` on any mismatch.

Properties — :func:`property_findings` compares one property's
``CheckResult.to_doc()`` documents across backends:

* verdicts are three-valued: a definitive explicit verdict equals the
  symbolic one, even on a truncated exploration, where the explored
  region alone must prove it; an explicit ``unknown`` is sound only on
  a truncated exploration (otherwise a ``disagreement``);
* witnesses — kind and steps — are identical between explicit and
  symbolic whenever the explicit exploration is complete and its
  verdict definitive;
* every witness replays as an actual schedule prefix of the model; a
  trace the kernel rejects, or cannot even attempt, is a ``witness``
  finding, never an exception.

Encodability — :func:`check_encodability` compiles the model once
through its kernel and holds the outcome against the static predictor.

:func:`cross_check` runs the instantiated :data:`PROPERTY_BATTERY` by
default; the test corpus runs it on every model family
(``tests/engine/test_symbolic_equivalence``).
"""

from __future__ import annotations

from repro.engine import ctl
from repro.engine.explorer import explore
from repro.errors import EquivalenceError, SymbolicEncodingError

#: the compared backend configurations: (label, strategy)
ORACLE_CONFIGS = (
    ("explicit", "explicit"),
    ("symbolic", "symbolic"),
)

#: property templates cross-checked on every corpus model; ``{e0}`` and
#: ``{e1}`` are substituted with the model's first two events.
PROPERTY_BATTERY = (
    "AG !deadlock",
    "EF deadlock",
    "EF occurs({e0})",
    "AF occurs({e0})",
    "AG occurs({e0})",
    "EG !occurs({e1})",
    "E[!occurs({e1}) U occurs({e0})]",
    "A[!occurs({e1}) U occurs({e0})]",
    "occurs({e0}) leads_to occurs({e1})",
    "AX (occurs({e0}) | occurs({e1}) | deadlock)",
)


def battery_texts(model) -> list[str]:
    """The property battery instantiated for *model*'s first events —
    the texts :func:`cross_check` checks by default, exposed so other
    harnesses (``repro fuzz`` mixes them with generated formulas) run
    the exact same battery."""
    events = sorted(model.events)
    if not events:
        return [t for t in PROPERTY_BATTERY if "{e" not in t]
    substitutions = {"e0": events[0], "e1": events[min(1, len(events) - 1)]}
    return [template.format(**substitutions)
            for template in PROPERTY_BATTERY]


def cross_check(
    model,
    max_states: int = 10_000,
    max_depth: int | None = None,
    include_empty: bool = False,
    maximal_only: bool = False,
    properties: list | None = None,
) -> dict:
    """Explore *model*, concretize its compiled system with the same
    budgets and diff the two spaces.

    Returns a report dictionary with the compared metrics and a
    ``mismatches`` list (empty means the backends agree). Alongside
    the two graphs, the sets the symbolic checker evaluates with
    (reachable states, ``deadlock``, ``occurs(e)`` per event) are
    checked against the explored space whenever the comparison is
    meaningful (untruncated, full branching).
    *properties* overrides the checked property texts: ``None`` runs
    the instantiated :data:`PROPERTY_BATTERY`, an explicit list (the
    fuzz harness passes generated formulas) runs exactly those, and an
    empty list skips the property phase.
    """
    budgets = dict(
        max_states=max_states,
        max_depth=max_depth,
        include_empty=include_empty,
        maximal_only=maximal_only,
    )
    explicit = explore(model, **budgets)
    system = model.kernel.transition_system(model)
    symbolic = system.to_statespace(**budgets)
    mismatches: list[str] = []

    def check(what: str, left, right) -> None:
        if left != right:
            mismatches.append(f"{what}: explicit {left!r} != symbolic {right!r}")

    check("states", explicit.n_states, symbolic.n_states)
    check("transitions", explicit.n_transitions, symbolic.n_transitions)
    check("truncated", explicit.truncated, symbolic.truncated)
    check("reachable keys", set(explicit.keys), set(symbolic.keys))
    check("serialized space", explicit.to_json(), symbolic.to_json())

    report = {
        "model": model.name,
        "events": len(model.events),
        "constraints": len(model.constraints),
        "states": explicit.n_states,
        "transitions": explicit.n_transitions,
        "truncated": explicit.truncated,
        "fixpoint": None,
    }

    if not explicit.truncated and max_depth is None and not maximal_only:
        checker = ctl._symbolic_checker(system, include_empty)
        reachable = checker.reached
        dead = checker.sat(ctl.Deadlock())
        zero = system.bdd.zero
        check("fixpoint state count", explicit.n_states, reachable.count())
        check("fixpoint keys", set(explicit.keys), set(reachable.states()))
        check("deadlock freedom", explicit.is_deadlock_free(), dead == zero)
        check("deadlock count", len(explicit.deadlocks()), system.count_states(dead))
        dead_events = {
            event for event in system.events if checker.sat(ctl.Occurs(event)) == zero
        }
        check("dead events", explicit.dead_events(), dead_events)
        report["fixpoint"] = {"states": reachable.count(), "depth": reachable.depth}
        if properties is None or properties:
            report["properties"] = []
            texts = battery_texts(model) if properties is None else properties
            for text in texts:
                by_explicit = ctl.check_space(explicit, text)
                by_symbolic = ctl.check(
                    model,
                    text,
                    strategy="symbolic",
                    include_empty=include_empty,
                )
                docs = {
                    "explicit": by_explicit.to_doc(),
                    "symbolic": by_symbolic.to_doc(),
                }
                mismatches.extend(
                    f"{kind} on {text!r}: {detail}"
                    for kind, detail in property_findings(model, docs)
                )
                entry = {
                    "property": text,
                    "verdict": by_explicit.verdict.value,
                    "witness": by_explicit.witness_kind,
                }
                report["properties"].append(entry)

    report["mismatches"] = mismatches
    report["agree"] = not mismatches
    return report


def property_findings(model, docs: dict) -> list[tuple[str, str]]:
    """The property rule (module docstring) over one property of *model*.

    *docs* maps backend labels (:data:`ORACLE_CONFIGS`) to
    ``CheckResult.to_doc()`` documents; a backend that did not run is
    absent. Returns ``(kind, detail)`` findings, *kind* being
    ``"disagreement"`` or ``"witness"``; an empty list means the
    backends agree.
    """
    findings: list[tuple[str, str]] = []

    def fail(kind: str, detail: str) -> None:
        findings.append((kind, detail))

    explicit = docs.get("explicit")
    symbolic = docs.get("symbolic")
    compare_witnesses = False
    if explicit is not None:
        verdict = explicit["verdict"]
        truncated = bool(explicit.get("truncated"))
        if verdict == "unknown" and not truncated:
            fail(
                "disagreement",
                "explicit verdict is UNKNOWN on an untruncated exploration",
            )
        if symbolic is not None and verdict != "unknown":
            if verdict != symbolic["verdict"]:
                fail(
                    "disagreement",
                    f"explicit={verdict} "
                    f"({'truncated' if truncated else 'complete'} at "
                    f"{explicit['states']} states) but "
                    f"symbolic={symbolic['verdict']}",
                )
            compare_witnesses = not truncated
    for label, doc in docs.items():
        steps = doc.get("trace")
        if steps is None:
            continue
        try:
            replays = ctl.replay_steps(model, [frozenset(step) for step in steps])
        except Exception as error:
            # a trace the kernel cannot even attempt (unknown events,
            # malformed steps) is an invalid witness, not an engine crash
            fail(
                "witness",
                f"{label} witness of {len(steps)} step(s) is not a "
                f"valid schedule prefix: {error}",
            )
        else:
            if not replays:
                fail(
                    "witness",
                    f"{label} witness of {len(steps)} step(s) does not "
                    f"replay as a schedule prefix",
                )
    if compare_witnesses and _witness(explicit) != _witness(symbolic):
        fail("witness", "explicit and symbolic report different witnesses")
    return findings


def _witness(doc: dict) -> tuple:
    """A property document's witness: its kind and its steps."""
    return doc.get("witness_kind"), doc.get("trace")


def compiles(model) -> bool:
    """Whether the symbolic backend compiles *model* — through the
    model's kernel, so later symbolic runs reuse the compiled system."""
    try:
        model.kernel.transition_system(model)
    except SymbolicEncodingError:
        return False
    return True


def check_encodability(model) -> tuple[bool, str | None]:
    """The predictor-vs-compile check: whether *model* compiles, and
    the finding when :func:`repro.engine.encodability.predict` said
    otherwise (``None`` when the two agree)."""
    from repro.engine.encodability import is_encodable

    predicted, compiled = is_encodable(model), compiles(model)
    if predicted == compiled:
        return compiled, None
    said = "encodable" if predicted else "unencodable"
    outcome = "succeeded" if compiled else "raised"
    finding = f"encodability predictor said {said} but the symbolic compile {outcome}"
    return compiled, finding


def assert_equivalent(model, **kwargs) -> dict:
    """:func:`cross_check`, raising on any discrepancy."""
    report = cross_check(model, **kwargs)
    if report["mismatches"]:
        details = "; ".join(report["mismatches"])
        raise EquivalenceError(
            f"symbolic and explicit exploration disagree on "
            f"{model.name!r}: {details}"
        )
    return report
