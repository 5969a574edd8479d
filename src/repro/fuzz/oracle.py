from __future__ import annotations

from dataclasses import dataclass, field

import repro
from repro.engine.equivalence import (
    ORACLE_CONFIGS,
    check_encodability,
    cross_check,
    property_findings,
)
from repro.fuzz.generators import FuzzCase, load_case_model
from repro.fuzz.rng import GENERATION


@dataclass
class FuzzFailure:
    """One oracle violation, with its self-contained repro document."""

    kind: str  # "disagreement" | "witness" | "crash" | "static"
    seed: int
    index: int
    frontend: str
    prop: str | None
    detail: str
    repro: dict

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "index": self.index,
            "frontend": self.frontend,
            "property": self.prop,
            "detail": self.detail,
            "repro": self.repro,
        }


@dataclass
class CaseOutcome:
    """What the oracle saw on one case."""

    case: FuzzCase
    checks: int = 0
    unencodable: bool = False
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def backend_specs(case: FuzzCase, prop: str | None = None) -> list:
    """The check of *prop* once per :data:`ORACLE_CONFIGS` backend, or,
    when *prop* is ``None``, the one exploration (the space cross-check
    concretizes the compiled system itself)."""
    from repro.workbench import RunSpec

    configs = ORACLE_CONFIGS if prop is not None else [("explicit", None)]
    return [
        RunSpec(
            kind="explore" if prop is None else "check",
            model=case.name,
            prop=prop,
            max_states=case.max_states,
            strategy=strategy,
            label=label,
        )
        for label, strategy in configs
    ]


def repro_doc(case: FuzzCase, failure_kind: str, detail: str,
              prop: str | None) -> dict:
    """The self-contained replay document of one failure.

    ``models``/``runs`` follow the canonical batch shape (``repro
    batch``/``repro submit`` run it as-is); the extra ``fuzz`` key is
    provenance both tools ignore."""
    if failure_kind == "static":  # replay the lint plus the exploration
        from repro.workbench import LintSpec

        runs = [LintSpec(case.name, label="lint")] + backend_specs(case)
    else:  # the property's checks, or the exploration of a space failure
        runs = backend_specs(case, prop)
    return {
        "models": {case.name: case.model_doc()},
        "runs": [spec.to_doc() for spec in runs],
        "fuzz": {
            "kind": failure_kind,
            "detail": detail,
            "seed": case.seed,
            "index": case.index,
            "frontend": case.frontend,
            "property": prop,
            "max_states": case.max_states,
            "generation": GENERATION,
            "version": repro.__version__,
        },
    }


def _failure(case: FuzzCase, kind: str, detail: str,
             prop: str | None = None) -> FuzzFailure:
    return FuzzFailure(
        kind=kind,
        seed=case.seed,
        index=case.index,
        frontend=case.frontend,
        prop=prop,
        detail=detail,
        repro=repro_doc(case, kind, detail, prop),
    )


def check_case(case: FuzzCase, handle=None) -> CaseOutcome:
    """Run the full differential oracle on one case."""
    outcome = CaseOutcome(case=case)
    try:
        if handle is None:
            handle = load_case_model(case)
        _check_static(case, handle, outcome)
        _check_spaces(case, handle, outcome)
        _check_properties(case, handle, outcome)
    except Exception as exc:  # a hard crash is exactly what we hunt
        outcome.failures.append(
            _failure(case, "crash", f"{type(exc).__name__}: {exc}")
        )
    return outcome


def _check_static(case: FuzzCase, handle, outcome: CaseOutcome) -> None:
    """Phase 0: the static analyzer, then the shared
    predictor-vs-compile check.

    Generated models are lint-clean by construction, so any
    ERROR-severity finding is a ``static`` oracle failure (either a
    generator regression or an analyzer false positive — both are
    bugs). The compile decides whether the later phases run the
    symbolic backends at all; a predictor that contradicts it is a
    ``static`` failure too."""
    from repro.lint import lint_handle

    report = lint_handle(handle)
    outcome.checks += 1
    if report.errors:
        detail = "lint errors on a generated model: " + "; ".join(
            f"{diag.rule} at {diag.path}: {diag.message}"
            for diag in report.errors
        )
        outcome.failures.append(_failure(case, "static", detail))
    compiled, finding = check_encodability(handle.execution_model)
    outcome.unencodable = not compiled
    if finding is not None:
        outcome.failures.append(_failure(case, "static", finding))


def _check_spaces(case: FuzzCase, handle, outcome: CaseOutcome) -> None:
    """Phase 1: the state-space cross-check."""
    if outcome.unencodable:
        return
    report = cross_check(
        handle.execution_model,
        max_states=case.max_states,
        properties=[],
    )
    outcome.checks += 1
    if report["mismatches"]:
        detail = "state-space cross-check: " + "; ".join(report["mismatches"])
        outcome.failures.append(_failure(case, "disagreement", detail))


def _check_properties(case: FuzzCase, handle,
                      outcome: CaseOutcome) -> None:
    """Phase 2: every property through every backend configuration,
    compared by the shared property rule."""
    from repro.workbench import Workbench

    workbench = Workbench()
    workbench.attach(case.name, handle)
    for prop in case.properties:
        docs = {}
        for spec in backend_specs(case, prop):
            if outcome.unencodable and spec.strategy == "symbolic":
                continue
            result = workbench.run(spec)
            outcome.checks += 1
            if result.ok:
                docs[spec.label] = result.data
            else:
                outcome.failures.append(
                    _failure(
                        case,
                        "crash",
                        f"{spec.label} errored: {result.error}",
                        prop,
                    )
                )
        for kind, detail in property_findings(handle.execution_model, docs):
            outcome.failures.append(_failure(case, kind, detail, prop))
