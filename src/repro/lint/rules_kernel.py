"""Kernel conformance findings surfaced as lint rules (``KER***``).

One adapter over
:func:`repro.kernel.validation.conformance_diagnostics`: the kernel
owns the traversal and the stable rule IDs; lint owns severity and
reporting. :func:`rule_conformance` is registered under all four IDs,
so a lint pass walks the source model once. Front-end loaders run
:func:`assert_conformance` before weaving, so these fire mainly on
programmatically-built models.
"""

from __future__ import annotations

from repro.kernel.validation import conformance_diagnostics
from repro.lint.core import Diagnostic, register_rule

_CONFIRM = {"kind": "conformance"}

_CONFIRM_STORY = (
    "`assert_conformance` raises ConformanceError with the same message"
)


@register_rule(
    "KER001", severity="error", requires="source_model",
    summary="required attribute or reference unset",
    confirm=_CONFIRM_STORY)
@register_rule(
    "KER002", severity="error", requires="source_model",
    summary="instance of an abstract metaclass",
    confirm=_CONFIRM_STORY)
@register_rule(
    "KER003", severity="error", requires="source_model",
    summary="cross-reference pointing outside the model closure",
    confirm=_CONFIRM_STORY)
@register_rule(
    "KER004", severity="error", requires="source_model",
    summary="containment cycle",
    confirm=_CONFIRM_STORY)
def rule_conformance(handle):
    for finding in conformance_diagnostics(handle.source_model):
        yield Diagnostic(
            rule=finding.rule, severity="error", path=finding.path,
            message=finding.message,
            data={"feature": finding.feature, "confirm": _CONFIRM})
