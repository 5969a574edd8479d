"""Static encodability prediction for the symbolic backend.

The symbolic engine rejects a model with :class:`SymbolicEncodingError`
when any constraint's *local* state machine cannot be closed into a
finite table: the alphabet is wider than
:data:`~repro.engine.symbolic.MAX_ALPHABET`, or the per-constraint
closure exceeds the local-state bound (a locally unbounded counter,
e.g. an unbounded ``Precedes``). Historically that was only discovered
*inside* compilation — ``strategy="auto"``, ``repro serve`` admission
and the fuzzing farm all wrapped the attempt in try/except. This
module decides the same question up front, without building a single
BDD node or stepping the engine:

1. **alphabet** — exact arithmetic on ``constrained_events`` (the same
   ``len(alphabet) > MAX_ALPHABET`` comparison the closure performs);
2. **static** — per-class state-count bounds for the kernel CCSL
   runtimes (a bounded ``Precedes`` reaches ``bound + 1`` counters, a
   ``PeriodicOn`` cycles through ``period`` phases, …), with genuinely
   unbounded counters (``Precedes``/``Causes`` without a bound)
   reported unencodable outright;
3. **interval** — abstract interpretation of MoCCML constraint
   automata: variable ranges are propagated through guard refinement
   and ``=``/``+=``/``-=`` actions to a widened fixpoint, so a
   guard-bounded counter (the SDF ``PlaceConstraint``'s ``size``) is
   proven finite without enumerating a single state;
4. **closure** — when the cheap tiers are inconclusive, the verdict
   falls back to the engine's own per-constraint local closure (still
   static: local and capped, never the global product), which makes
   the prediction *exact by construction*.

The predictor is consulted by ``strategy="auto"`` routing
(:mod:`repro.engine.explorer`, :mod:`repro.engine.ctl`), ``repro
serve`` model admission and the lint rule ``ENC001``; the original
try/except paths remain as a safety net whose firings are counted in
the telemetry below (a firing means the predictor was wrong — a bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs

_INF = float("inf")

#: rounds of plain fixpoint iteration before widening to ±inf
_WIDEN_ROUNDS = 16


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
    method: str  # "alphabet" | "static" | "interval" | "closure"
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
# interval arithmetic over the iexpr AST
# ---------------------------------------------------------------------------

Interval = tuple[float, float]  # endpoints may be ±inf
_FULL: Interval = (-_INF, _INF)


def _ivl_add(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def _ivl_sub(a: Interval, b: Interval) -> Interval:
    return (a[0] - b[1], a[1] - b[0])


def _ivl_neg(a: Interval) -> Interval:
    return (-a[1], -a[0])


def _ivl_mul(a: Interval, b: Interval) -> Interval:
    if any(abs(x) == _INF for x in (*a, *b)):
        return _FULL
    products = [x * y for x in a for y in b]
    return (min(products), max(products))


def _eval_interval(expr, env: dict[str, Interval]) -> Interval:
    """Over-approximating interval of *expr* under variable ranges
    *env* (parameters are point intervals)."""
    from repro.iexpr.ast import (
        Add, Div, IntConst, IntVar, Mod, Mul, Neg, Sub,
    )

    if isinstance(expr, IntConst):
        return (expr.value, expr.value)
    if isinstance(expr, IntVar):
        return env.get(expr.name, _FULL)
    if isinstance(expr, Add):
        return _ivl_add(_eval_interval(expr.left, env),
                        _eval_interval(expr.right, env))
    if isinstance(expr, Sub):
        return _ivl_sub(_eval_interval(expr.left, env),
                        _eval_interval(expr.right, env))
    if isinstance(expr, Neg):
        return _ivl_neg(_eval_interval(expr.operand, env))
    if isinstance(expr, Mul):
        return _ivl_mul(_eval_interval(expr.left, env),
                        _eval_interval(expr.right, env))
    if isinstance(expr, Mod):
        divisor = _eval_interval(expr.right, env)
        if divisor[0] == divisor[1] and divisor[0] > 0:
            return (0.0, divisor[0] - 1)
        return _FULL
    if isinstance(expr, Div):
        dividend = _eval_interval(expr.left, env)
        divisor = _eval_interval(expr.right, env)
        finite = all(abs(x) != _INF for x in (*dividend, *divisor))
        if finite and (divisor[0] > 0 or divisor[1] < 0):
            quotients = [int(x / y) for x in dividend for y in divisor]
            return (min(quotients), max(quotients))
        return _FULL
    return _FULL


def _guard_conjuncts(guard) -> list:
    from repro.iexpr.ast import GAnd

    if guard is None:
        return []
    if isinstance(guard, GAnd):
        result = []
        for part in guard.parts:
            result.extend(_guard_conjuncts(part))
        return result
    return [guard]


def _refine_by_guard(guard, env: dict[str, Interval],
                     variables: set[str]) -> dict[str, Interval] | None:
    """Narrow *env* by the guard's top-level comparison conjuncts.

    Only single-variable-vs-expression comparisons refine (sound: any
    unhandled form simply refines nothing). Returns ``None`` when a
    conjunct is provably unsatisfiable under *env* — the transition
    can never fire from states in these ranges.
    """
    from repro.iexpr.ast import Cmp, GConst, IntVar

    refined = dict(env)
    for conjunct in _guard_conjuncts(guard):
        if isinstance(conjunct, GConst):
            if not conjunct.value:
                return None
            continue
        if not isinstance(conjunct, Cmp):
            continue
        op, left, right = conjunct.op, conjunct.left, conjunct.right
        # normalize to VAR <op> EXPR when possible
        if (isinstance(right, IntVar) and right.name in variables
                and not (isinstance(left, IntVar)
                         and left.name in variables)):
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                    "==": "==", "!=": "!="}
            op, left, right = flip[op], right, left
        if not (isinstance(left, IntVar) and left.name in variables):
            continue
        bound = _eval_interval(right, refined)
        lo, hi = refined.get(left.name, _FULL)
        if op == "<":
            hi = min(hi, bound[1] - 1)
        elif op == "<=":
            hi = min(hi, bound[1])
        elif op == ">":
            lo = max(lo, bound[0] + 1)
        elif op == ">=":
            lo = max(lo, bound[0])
        elif op == "==":
            lo, hi = max(lo, bound[0]), min(hi, bound[1])
        # "!=" refines nothing
        if lo > hi:
            return None
        refined[left.name] = (lo, hi)
    return refined


def _apply_actions(actions, env: dict[str, Interval]) -> dict[str, Interval]:
    result = dict(env)
    for action in actions:
        value = _eval_interval(action.value, result)
        if action.op == "=":
            result[action.target] = value
        elif action.op == "+=":
            result[action.target] = _ivl_add(
                result.get(action.target, _FULL), value)
        elif action.op == "-=":
            result[action.target] = _ivl_sub(
                result.get(action.target, _FULL), value)
        else:  # pragma: no cover - parser only emits the three forms
            result[action.target] = _FULL
    return result


def _join(a: dict[str, Interval], b: dict[str, Interval],
          names) -> dict[str, Interval]:
    return {name: (min(a[name][0], b[name][0]),
                   max(a[name][1], b[name][1]))
            for name in names}


def _widen(old: dict[str, Interval], new: dict[str, Interval],
           names) -> dict[str, Interval]:
    """Classic interval widening: any endpoint still moving jumps to
    ±inf, guaranteeing termination."""
    result = {}
    for name in names:
        lo = old[name][0] if new[name][0] >= old[name][0] else -_INF
        hi = old[name][1] if new[name][1] <= old[name][1] else _INF
        result[name] = (lo, hi)
    return result


def _automaton_interval_bound(runtime) -> int | None:
    """Upper bound on an :class:`AutomatonRuntime`'s reachable local
    state count via interval abstract interpretation, or ``None`` when
    inconclusive (some variable range stays infinite)."""
    definition = runtime.definition
    names = sorted(runtime._vars)
    if not names:
        return max(1, len(definition.state_names()))
    variables = set(names)
    env = {name: (float(value), float(value))
           for name, value in runtime._vars.items()}
    env.update({name: (float(value), float(value))
                for name, value in runtime._params.items()})

    current = {name: env[name] for name in names}
    params = {name: env[name] for name in env if name not in variables}
    for round_number in range(_WIDEN_ROUNDS * 2):
        stepped = dict(current)
        for transition in definition.transitions:
            entry = dict(current)
            entry.update(params)
            refined = _refine_by_guard(transition.guard, entry, variables)
            if refined is None:
                continue
            after = _apply_actions(transition.actions, refined)
            stepped = _join(stepped,
                            {name: after[name] for name in names}, names)
        if stepped == current:
            break
        if round_number >= _WIDEN_ROUNDS:
            stepped = _widen(current, stepped, names)
        current = stepped
    else:  # pragma: no cover - widening forces convergence
        return None

    product = max(1, len(definition.state_names()))
    for name in names:
        lo, hi = current[name]
        if lo == -_INF or hi == _INF:
            return None
        product *= int(hi) - int(lo) + 1
    return product


# ---------------------------------------------------------------------------
# per-class static bounds
# ---------------------------------------------------------------------------

_UNBOUNDED = -1  # sentinel: provably infinite local state space


def _static_bound(runtime) -> int | None:
    """Exact-or-over-approximating local-state bound for the known
    runtime classes; :data:`_UNBOUNDED` for provably infinite ones,
    ``None`` when this tier cannot decide."""
    from repro.ccsl.stateful import (
        CausesRuntime,
        DeadlineRuntime,
        DelayedForRuntime,
        FilterByRuntime,
        PeriodicOnRuntime,
        PrecedesRuntime,
        SampledOnRuntime,
    )
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
        return _automaton_interval_bound(runtime)
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
    method = ("interval" if isinstance(runtime, AutomatonRuntime)
              else "static")
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
        space = _close_local(0, runtime, max_local_states)
    except SymbolicEncodingError as exc:
        return ConstraintVerdict(
            label=label, encodable=False, method="closure",
            reason=str(exc))
    return ConstraintVerdict(
        label=label, encodable=True, method="closure",
        bound=len(space.keys),
        reason=f"local closure has {len(space.keys)} state(s)")


def predict(model, max_local_states: int | None = None,
            max_alphabet: int | None = None) -> EncodabilityReport:
    """Predict whether the symbolic backend can compile *model*.

    The parameters default to the engine's compilation limits
    (:data:`~repro.engine.symbolic.DEFAULT_MAX_LOCAL_STATES`,
    :data:`~repro.engine.symbolic.MAX_ALPHABET`), so a default
    ``predict`` agrees with a default
    :func:`~repro.engine.symbolic.compile_transition_system`.
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
    """Boolean shorthand for the auto-strategy and admission routers."""
    return predict(model).encodable
