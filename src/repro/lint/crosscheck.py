"""Static↔dynamic cross-check: every lint claim replayed on the engine.

The analyzer is only trustworthy if its diagnostics survive contact
with the dynamic semantics, so — mirroring
:mod:`repro.engine.equivalence` for the symbolic backend — this module
replays every diagnostic carrying a ``confirm`` descriptor against the
engine and reports every divergence:

``deadlock``
    ``check "EF deadlock"`` must HOLD (untruncated) on the model, or
    on the projected component when the claim is component-local;
``dead-event``
    ``check "AG !occurs(<event>)"`` must HOLD untruncated;
``repetition``
    an ASAP (:meth:`max_step`) run must revisit a configuration, and
    the firing counts over the cycle must be an exact positive integer
    multiple of the claimed repetition vector;
``unencodable``
    the symbolic backend must refuse to compile the model
    (:func:`repro.engine.equivalence.compiles`);
``conformance``
    :func:`assert_conformance` must reject the source model.

Engine verdicts come from ``check(..., strategy="auto")``, which
answers unencodable models by explicit exploration. Independently of
any diagnostics, :func:`crosscheck_handle` always runs the shared
predictor-vs-compile check
(:func:`repro.engine.equivalence.check_encodability`, the same check
the fuzz oracle runs), so the predictor is exercised on clean corpora
too.
"""

from __future__ import annotations

from repro.engine.ctl import check
from repro.engine.equivalence import check_encodability, compiles
from repro.errors import ConformanceError
from repro.kernel.validation import assert_conformance
from repro.lint.core import LintReport, lint_handle
from repro.lint.rules_sdf import component_doc

#: ASAP steps driven before giving up on a configuration revisit
_MAX_ASAP_STEPS = 10_000


def _check_holds(model, text: str) -> tuple[bool, str]:
    """Engine verdict for *text*."""
    result = check(model, text, strategy="auto")
    verdict = result.verdict.name
    if verdict == "UNKNOWN":
        return False, f"{text}: UNKNOWN (truncated at {result.states})"
    return verdict == "HOLDS", f"{text}: {verdict}"


def _confirm_model(handle, confirm: dict):
    """The execution model a claim replays on: the handle's own, or a
    freshly loaded component projection."""
    from repro.workbench.frontends import load_doc

    if not confirm.get("project"):
        return handle.execution_model.clone()
    doc = component_doc(handle, confirm["agents"])
    projected = load_doc(doc, name=f"{handle.name}-component")
    return projected.execution_model


def _confirm_deadlock(handle, confirm: dict) -> tuple[bool, str]:
    model = _confirm_model(handle, confirm)
    return _check_holds(model, "EF deadlock")


def _confirm_dead_event(handle, confirm: dict) -> tuple[bool, str]:
    model = handle.execution_model.clone()
    return _check_holds(model, f"AG !occurs({confirm['event']})")


def _confirm_repetition(handle, confirm: dict) -> tuple[bool, str]:
    model = _confirm_model(handle, confirm)
    agents = confirm["agents"]
    repetition = confirm["repetition"]
    seen = {model.configuration(): 0}
    steps: list[frozenset] = []
    for index in range(1, _MAX_ASAP_STEPS + 1):
        step = model.max_step()
        if step is None:
            return False, f"ASAP run deadlocked after {len(steps)} step(s)"
        model.advance(step)
        steps.append(step)
        configuration = model.configuration()
        if configuration in seen:
            cycle = steps[seen[configuration]:]
            counts = {agent: sum(1 for s in cycle
                                 if f"{agent}.start" in s)
                      for agent in agents}
            quotients = {counts[agent] // repetition[agent]
                         for agent in agents
                         if counts[agent] % repetition[agent] == 0}
            exact = {agent for agent in agents
                     if counts[agent] % repetition[agent] == 0}
            if (len(exact) == len(agents) and len(quotients) == 1
                    and min(quotients) >= 1):
                return True, (f"ASAP cycle of {len(cycle)} step(s) "
                              f"fires {quotients.pop()}x the vector")
            return False, (f"ASAP cycle fires {counts}, not a positive "
                           f"multiple of {repetition}")
        seen[configuration] = index
    return False, f"no configuration revisit in {_MAX_ASAP_STEPS} steps"


def _confirm_unencodable(handle, confirm: dict) -> tuple[bool, str]:
    if compiles(handle.execution_model):
        return False, "compile succeeded despite the diagnostic"
    return True, "compile raised SymbolicEncodingError"


def _confirm_conformance(handle, confirm: dict) -> tuple[bool, str]:
    try:
        assert_conformance(handle.source_model)
    except ConformanceError:
        return True, "assert_conformance raised ConformanceError"
    return False, "assert_conformance accepted the model"


_CONFIRMERS = {
    "deadlock": _confirm_deadlock,
    "dead-event": _confirm_dead_event,
    "repetition": _confirm_repetition,
    "unencodable": _confirm_unencodable,
    "conformance": _confirm_conformance,
}


def crosscheck_handle(handle, report: LintReport | None = None) -> dict:
    """Replay every confirmable diagnostic of *handle* on the engine.

    Returns ``{"model", "checks": [...], "mismatches": [...],
    "agree": bool}``; a diagnostic whose dynamic claim the engine does
    not reproduce — or an ERROR diagnostic with no confirm descriptor
    at all — is a mismatch.
    """
    if report is None:
        report = lint_handle(handle)
    checks: list[dict] = []
    mismatches: list[str] = []
    for diagnostic in report.diagnostics:
        confirm = diagnostic.data.get("confirm")
        if confirm is None:
            if diagnostic.severity == "error":
                mismatches.append(
                    f"{diagnostic.rule} at {diagnostic.path}: ERROR "
                    f"without a confirm descriptor")
            continue
        confirmer = _CONFIRMERS.get(confirm["kind"])
        if confirmer is None:
            mismatches.append(
                f"{diagnostic.rule} at {diagnostic.path}: no confirmer "
                f"for kind {confirm['kind']!r}")
            continue
        ok, detail = confirmer(handle, confirm)
        checks.append({"rule": diagnostic.rule, "path": diagnostic.path,
                       "kind": confirm["kind"], "ok": ok,
                       "detail": detail})
        if not ok:
            mismatches.append(
                f"{diagnostic.rule} at {diagnostic.path}: {detail}")

    # predictor ⇔ backend, on every model (clean ones included)
    compiled, finding = check_encodability(handle.execution_model)
    checks.append({"rule": "ENC001", "path": handle.name,
                   "kind": "encodability", "ok": finding is None,
                   "detail": finding or f"predictor and compile agree: "
                                        f"encodable={compiled}"})
    if finding is not None:
        mismatches.append(f"ENC001 on {handle.name}: {finding}")

    return {"model": handle.name, "frontend": handle.frontend,
            "diagnostics": len(report.diagnostics),
            "checks": checks, "mismatches": mismatches,
            "agree": not mismatches}


def crosscheck_corpus(handles) -> dict:
    """Run :func:`crosscheck_handle` over a corpus of handles (the
    shape mirrors ``repro selftest`` phases: per-model reports plus an
    aggregate ``agree``)."""
    reports = [crosscheck_handle(handle) for handle in handles]
    mismatches = [m for r in reports for m in r["mismatches"]]
    return {"models": len(reports), "reports": reports,
            "checks": sum(len(r["checks"]) for r in reports),
            "mismatches": mismatches, "agree": not mismatches}
