"""Static encodability prediction for the symbolic backend.

The symbolic engine rejects a model with :class:`SymbolicEncodingError`
when any constraint's *local* state machine cannot be closed into a
finite table: the alphabet is wider than
:data:`~repro.engine.symbolic.MAX_ALPHABET`, or the per-constraint
closure exceeds the local-state bound (a locally unbounded counter,
e.g. an unbounded ``Precedes``). Historically that was only discovered
*inside* compilation — ``check(strategy="auto")``, ``repro serve``
admission and the fuzzing farm all wrapped the attempt in try/except. This
module decides the same question up front, without building a single
BDD node or stepping the global product:

1. **alphabet** — exact arithmetic on ``constrained_events`` (the same
   ``len(alphabet) > MAX_ALPHABET`` comparison the closure performs);
2. **static** — per-class state-count bounds for the kernel CCSL
   runtimes (a bounded ``Precedes`` reaches ``bound + 1`` counters, a
   ``PeriodicOn`` cycles through ``period`` phases, …) and the
   deployment runtimes (a processor mutex is idle or held by one of its
   agents), with genuinely unbounded counters (``Precedes``/``Causes``
   without a bound, a communication delay's matured tokens) reported
   unencodable outright;
3. **walk** — the exact local walk of a MoCCML constraint automaton
   (:func:`local_walk`, which also answers the lint rules MOC001 and
   MOC002): a BFS over its ``(state, variables)`` configurations under
   every local step, so a guard-bounded counter (the SDF
   ``PlaceConstraint``'s ``size``) is bounded by the configurations it
   really reaches;
4. **closure** — when these tiers are inconclusive (an automaton past
   the walk's caps of 8 events and 2,048 configurations, or whose
   ``advance`` raises) or a bound exceeds the local-state bound, the
   verdict falls back to the engine's own per-constraint local closure
   (still static: local and capped, never the global product), which
   makes the prediction *exact by construction*.

The predictor is consulted by the ``auto`` check routing
(:func:`repro.engine.ctl.check`) and the lint rule ``ENC001``; the
original try/except paths remain as a safety net whose firings are
counted in the telemetry below (a firing means the predictor was wrong
— a bug). Exploration needs no encoding and never consults it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro import obs


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------

#: the ``encodability.<name>`` counters on :data:`repro.obs.GLOBAL`, in
#: the order the serve ``/metrics`` document reports them
COUNTERS = (
    "predicted_encodable",
    "predicted_unencodable",
    "closure_fallbacks",
    "safety_net_raises",
)


def record_safety_net() -> None:
    """Count a :class:`SymbolicEncodingError` that escaped past an
    ``encodable`` prediction — the predictor-was-wrong counter."""
    obs.count("encodability.safety_net_raises")


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------


@dataclass
class ConstraintVerdict:
    """The prediction for one constraint runtime."""

    label: str
    encodable: bool
    method: str  # "alphabet" | "static" | "walk" | "closure"
    reason: str
    bound: int | None = None  # local-state upper bound when known

    def to_doc(self) -> dict:
        return {
            "label": self.label,
            "encodable": self.encodable,
            "method": self.method,
            "reason": self.reason,
            "bound": self.bound,
        }


@dataclass
class EncodabilityReport:
    """The whole-model prediction: encodable iff every constraint is."""

    encodable: bool
    verdicts: list[ConstraintVerdict] = field(default_factory=list)

    @property
    def blockers(self) -> list[ConstraintVerdict]:
        return [v for v in self.verdicts if not v.encodable]

    @property
    def reason(self) -> str:
        if self.encodable:
            return "every constraint has a finite local encoding"
        return "; ".join(
            f"{v.label}: {v.reason}" for v in self.blockers)

    def to_doc(self) -> dict:
        return {
            "encodable": self.encodable,
            "reason": self.reason,
            "constraints": [v.to_doc() for v in self.verdicts],
        }


# ---------------------------------------------------------------------------
# the exact local walk of a constraint automaton
# ---------------------------------------------------------------------------

#: walks beyond these sizes are skipped (the closure tier then decides;
#: 2**_MAX_LOCAL_ALPHABET step subsets are tried per configuration)
_MAX_LOCAL_ALPHABET = 8
_MAX_CONFIGS = 2048


def local_walk(runtime) -> dict | None:
    """Exact reachability of one
    :class:`~repro.moccml.semantics.automata_rt.AutomatonRuntime`
    instance under arbitrary environment steps; ``None`` when the
    instance is too big to walk exhaustively.

    A BFS over ``(state, variables)`` configurations via
    ``snapshot``/``restore`` on a clone, presenting every subset of the
    instance's local alphabet as a candidate step — the empty one too,
    as the engine's own closure does, since a transition without
    ``when`` events fires on a step that leaves the alphabet out. It
    reaches the configurations the closure admits, so ``"configs"`` is
    the instance's exact local state count.

    Returns ``{"configs": reachable configuration count, "states":
    reachable state names, "overlaps": {state: [(step, [transition
    descriptions])]}}``.
    """
    alphabet = sorted(runtime.constrained_events)
    if len(alphabet) > _MAX_LOCAL_ALPHABET:
        return None
    steps = []
    for mask in range(2 ** len(alphabet)):
        steps.append(frozenset(
            event for index, event in enumerate(alphabet)
            if mask >> index & 1))

    probe = runtime.clone()
    initial = probe.snapshot()
    seen = {initial}
    queue = [initial]
    states: set[str] = set()
    overlaps: dict[str, dict] = {}
    while queue:
        config = queue.pop(0)
        for step in steps:
            probe.restore(config)
            enabled = probe.enabled_transitions(step)
            if not enabled:
                continue
            if len(enabled) > 1:
                record = overlaps.setdefault(probe.current_state, {})
                key = tuple(f"{t.source}->{t.target}" for t in enabled)
                record.setdefault(key, sorted(step))
            probe.advance(step)
            successor = probe.snapshot()
            if successor not in seen:
                if len(seen) >= _MAX_CONFIGS:
                    return None
                seen.add(successor)
                queue.append(successor)
    for config in seen:
        probe.restore(config)
        states.add(probe.current_state)
    return {
        "configs": len(seen),
        "states": states,
        "overlaps": {
            state: [(step, list(key)) for key, step in record.items()]
            for state, record in overlaps.items()
        },
    }


# ---------------------------------------------------------------------------
# per-class static bounds
# ---------------------------------------------------------------------------

_UNBOUNDED = -1  # sentinel: provably infinite local state space


def _static_bound(runtime) -> int | None:
    """Exact-or-over-approximating local-state bound for the known
    runtime classes (an automaton's is its walk's configuration count);
    :data:`_UNBOUNDED` for provably infinite ones, ``None`` when this
    tier cannot decide."""
    from repro.ccsl.stateful import (
        CausesRuntime,
        DeadlineRuntime,
        DelayedForRuntime,
        FilterByRuntime,
        PeriodicOnRuntime,
        PrecedesRuntime,
        SampledOnRuntime,
    )
    from repro.errors import SemanticsError
    from repro.moccml.semantics.automata_rt import AutomatonRuntime
    from repro.moccml.semantics.runtime import (
        CompositeRuntime,
        FormulaRuntime,
    )

    if isinstance(runtime, FormulaRuntime):
        return 1
    if isinstance(runtime, PrecedesRuntime):  # Alternates subclasses it
        if runtime.bound is None:
            return _UNBOUNDED
        return runtime.bound + 1
    if isinstance(runtime, CausesRuntime):
        return _UNBOUNDED
    if isinstance(runtime, DelayedForRuntime):
        return runtime.depth + 1
    if isinstance(runtime, PeriodicOnRuntime):
        return runtime.period
    if isinstance(runtime, SampledOnRuntime):
        return 2
    if isinstance(runtime, FilterByRuntime):
        return len(runtime.word.prefix) + len(runtime.word.period)
    if isinstance(runtime, DeadlineRuntime):
        return runtime.budget + 2
    # a deployment runtime exists only once its module is loaded: looking
    # the module up instead of importing it keeps the predictor from
    # pulling the whole deployment package into processes that never
    # deploy (a cold ``repro check``)
    deployment = sys.modules.get("repro.deployment.mocc")
    if deployment is not None:
        if isinstance(runtime, deployment.ProcessorMutexRuntime):
            return len(runtime.agents) + 1  # idle, or one agent running
        if isinstance(runtime, deployment.CommDelayRuntime):
            # a write without a read is always locally acceptable, so
            # the matured-token count grows without bound
            return _UNBOUNDED
    if isinstance(runtime, CompositeRuntime):
        product = 1
        for child in runtime.children:
            child_bound = _static_bound(child)
            if child_bound == _UNBOUNDED:
                return _UNBOUNDED
            if child_bound is None:
                return None
            product *= child_bound
        return product
    if isinstance(runtime, AutomatonRuntime):
        try:
            walk = local_walk(runtime)
        except SemanticsError:  # the closure reports it
            return None
        return None if walk is None else walk["configs"]
    return None


# ---------------------------------------------------------------------------
# the predictor
# ---------------------------------------------------------------------------


def classify_constraint(runtime, max_local_states: int,
                        max_alphabet: int) -> ConstraintVerdict:
    """Predict whether one constraint runtime closes finitely."""
    from repro.engine.symbolic import _close_local
    from repro.errors import SymbolicEncodingError
    from repro.moccml.semantics.automata_rt import AutomatonRuntime

    label = runtime.label
    alphabet = len(runtime.constrained_events)
    if alphabet > max_alphabet:
        return ConstraintVerdict(
            label=label, encodable=False, method="alphabet",
            reason=f"constrains {alphabet} events; the symbolic "
                   f"encoding caps local alphabets at {max_alphabet}")

    bound = _static_bound(runtime)
    method = "walk" if isinstance(runtime, AutomatonRuntime) else "static"
    if bound == _UNBOUNDED:
        return ConstraintVerdict(
            label=label, encodable=False, method="static",
            reason="locally unbounded counter (no finite local "
                   "encoding at any closure bound)")
    if bound is not None and bound <= max_local_states:
        return ConstraintVerdict(
            label=label, encodable=True, method=method, bound=bound,
            reason=f"at most {bound} local state(s)")

    # inconclusive (or finite-but-large): decide exactly with the
    # engine's own bounded local closure — per-constraint, capped,
    # still no global product exploration
    obs.count("encodability.closure_fallbacks")
    try:
        table = _close_local(0, runtime, max_local_states)
    except SymbolicEncodingError as exc:
        return ConstraintVerdict(
            label=label, encodable=False, method="closure",
            reason=str(exc))
    return ConstraintVerdict(
        label=label, encodable=True, method="closure",
        bound=table.n_states,
        reason=f"local closure has {table.n_states} state(s)")


def predict(model, max_local_states: int | None = None,
            max_alphabet: int | None = None) -> EncodabilityReport:
    """Predict whether the symbolic backend can compile *model*.

    The parameters default to the engine's compilation limits
    (:data:`~repro.engine.symbolic.DEFAULT_MAX_LOCAL_STATES`,
    :data:`~repro.engine.symbolic.MAX_ALPHABET`), so a default
    ``predict`` agrees with the compile of
    :class:`~repro.engine.symbolic.TransitionSystem`.
    """
    from repro.engine.symbolic import DEFAULT_MAX_LOCAL_STATES, MAX_ALPHABET

    if max_local_states is None:
        max_local_states = DEFAULT_MAX_LOCAL_STATES
    if max_alphabet is None:
        max_alphabet = MAX_ALPHABET
    verdicts = [
        classify_constraint(runtime, max_local_states, max_alphabet)
        for runtime in model.constraints
    ]
    report = EncodabilityReport(
        encodable=all(v.encodable for v in verdicts), verdicts=verdicts)
    obs.count("encodability.predicted_encodable" if report.encodable
              else "encodability.predicted_unencodable")
    return report


def is_encodable(model) -> bool:
    """Boolean shorthand for the auto check router."""
    return predict(model).encodable
