"""Exception hierarchy for the repro library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to distinguish the layer that
failed (metamodeling, parsing, semantics, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by the repro library."""


# ---------------------------------------------------------------------------
# kernel (metamodeling) errors
# ---------------------------------------------------------------------------


class MetamodelError(ReproError):
    """A metamodel definition is ill-formed (duplicate feature, bad type...)."""


class ConformanceError(ReproError):
    """A model does not conform to its metamodel."""


class NavigationError(ReproError):
    """A navigation path could not be evaluated on a model element."""


class SerializationError(ReproError):
    """A model or metamodel could not be (de)serialized."""


# ---------------------------------------------------------------------------
# language (MoCCML / ECL / SDF) errors
# ---------------------------------------------------------------------------


class MoccmlError(ReproError):
    """A MoCCML library or definition is ill-formed."""


class MoccmlValidationError(MoccmlError):
    """Static validation of a MoCCML artifact failed.

    Carries the list of individual diagnostics in :attr:`issues`.
    """

    def __init__(self, issues: list[str]):
        self.issues = list(issues)
        summary = "; ".join(self.issues[:5])
        if len(self.issues) > 5:
            summary += f"; ... ({len(self.issues)} issues)"
        super().__init__(summary)


class ParseError(ReproError):
    """A textual artifact (MoCCML, ECL, SigPML) failed to parse."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, filename: str | None = None):
        self.line = line
        self.column = column
        self.filename = filename
        location = ""
        if filename is not None:
            location += f"{filename}:"
        if line is not None:
            location += f"{line}:"
            if column is not None:
                location += f"{column}:"
        if location:
            message = f"{location} {message}"
        super().__init__(message)


class MappingError(ReproError):
    """An ECL mapping could not be woven onto a model."""


# ---------------------------------------------------------------------------
# semantics / engine errors
# ---------------------------------------------------------------------------


class SemanticsError(ReproError):
    """A constraint runtime was used inconsistently."""


class GuardTypeError(SemanticsError):
    """A guard or action expression is ill-typed or refers to unknown names."""


class EngineError(ReproError):
    """The execution engine was misused or hit an internal limit."""


class DeadlockError(EngineError):
    """A simulation required progress but no acceptable step exists."""


class SymbolicEncodingError(EngineError):
    """A model could not be finitely encoded for symbolic reachability
    (e.g. a constraint's local state space exceeded the closure bound)."""


class EquivalenceError(EngineError):
    """Explicit exploration and a compiled symbolic system disagreed —
    raised by the cross-checking harness; always a bug, never user error."""


# ---------------------------------------------------------------------------
# domain (SDF / deployment) errors
# ---------------------------------------------------------------------------


class SdfError(ReproError):
    """An SDF/SigPML model is ill-formed."""


class InconsistentGraphError(SdfError):
    """The SDF balance equations admit only the zero solution."""


class DeploymentError(ReproError):
    """A platform/allocation specification is ill-formed."""
