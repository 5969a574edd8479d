"""CCSL rules: dead events, contradictory parameters, unbound clocks.

These rules reason over the *runtime* constraint objects attached to a
loaded :class:`~repro.engine.execution_model.ExecutionModel`, never
over concrete executions. Dead-event claims (``error`` severity) all
confirm dynamically as ``AG !occurs(<event>)`` on the untruncated
state space.

CCS001 decides satisfiability on a :class:`~repro.boolalg.bdd.Bdd`,
the package every other boolean question of the engine is answered
on, in a manager of its own rather than the model's kernel.
"""

from __future__ import annotations

import math

from repro.boolalg.bdd import Bdd
from repro.ccsl.stateful import (
    CausesRuntime,
    DelayedForRuntime,
    FilterByRuntime,
    PeriodicOnRuntime,
    PrecedesRuntime,
    SampledOnRuntime,
)
from repro.lint.core import Diagnostic, register_rule
from repro.moccml.semantics.runtime import CompositeRuntime, FormulaRuntime


def leaf_runtimes(model) -> list:
    """All constraint runtimes, with composites flattened."""
    leaves = []
    queue = list(model.constraints)
    while queue:
        runtime = queue.pop(0)
        if isinstance(runtime, CompositeRuntime):
            queue.extend(runtime.children)
        else:
            leaves.append(runtime)
    return leaves


def _dead_event_diag(rule: str, model, event: str, message: str,
                     data: dict | None = None) -> Diagnostic:
    payload = dict(data or {})
    payload["event"] = event
    payload["confirm"] = {"kind": "dead-event", "event": event}
    return Diagnostic(rule=rule, severity="error",
                      path=f"{model.name}.{event}", message=message,
                      data=payload)


@register_rule(
    "CCS001", severity="error", requires="execution_model",
    summary="event forbidden by the conjunction of the stateless "
            "(relational) constraints",
    confirm="`AG !occurs(<event>)` HOLDS on the untruncated space")
def rule_stateless_dead(handle):
    """Decide each event against the conjunction of every stateless
    :class:`FormulaRuntime` step formula, compiled on a BDD. Those
    formulas never change, and stateful constraints only *remove* steps,
    so an event that no satisfying assignment of the conjunction fires
    is definitely dead (catches e.g. ``Coincides(a, b)`` +
    ``Excludes(a, b)``)."""
    model = handle.execution_model
    formulas = [runtime.step_formula()
                for runtime in leaf_runtimes(model)
                if isinstance(runtime, FormulaRuntime)]
    if not formulas:
        return
    # each formula's own support: folding the conjunction first can
    # reduce a contradiction to FALSE, whose support is empty
    support = frozenset().union(*(formula.support() for formula in formulas))
    # a private manager: lint must not grow the model's kernel, whose
    # resident nodes ``repro serve`` counts against --max-nodes
    bdd = Bdd(order=model.events)
    nodes = [bdd.from_expr(formula) for formula in formulas]
    # a balanced AND tree: a left fold would copy the upper levels of
    # the growing conjunction once per formula
    while len(nodes) > 1:
        odd = nodes[-1:] if len(nodes) % 2 else []
        nodes = [bdd.apply_and(left, right)
                 for left, right in zip(nodes[::2], nodes[1::2])] + odd
    [node] = nodes
    # every model found proves all its fired events alive at once; a
    # maximal one first leaves clean models with few events to probe
    alive: set[str] = set()
    base = bdd.max_true_model(node, model.events)
    if base is not None:
        alive |= {name for name, value in base.items() if value}
    for event in model.events:
        if event not in support or event in alive:
            continue
        witness = (None if base is None else bdd.max_true_model(
            bdd.apply_and(node, bdd.var(event)), model.events))
        if witness is not None:
            alive |= {name for name, value in witness.items() if value}
            continue
        yield _dead_event_diag(
            "CCS001", model, event,
            f"event {event!r} cannot occur in any step satisfying the "
            f"stateless constraints")


def precedence_edges(model) -> list[tuple[str, str, bool, str]]:
    """``(cause, effect, strict, label)`` edges of the precedence
    digraph.

    *strict* means the effect is forbidden (even simultaneously) while
    the constraint is in its initial state; a weak edge only forces
    ``effect in step => cause in step`` at the initial state. Both
    properties are exactly what :func:`rule_precedence_cycle` needs for
    its first-constrained-step argument.
    """
    edges = []
    for runtime in leaf_runtimes(model):
        label = runtime.label
        if isinstance(runtime, PrecedesRuntime):  # Alternates included
            edges.append((runtime.cause, runtime.effect, True, label))
        elif isinstance(runtime, CausesRuntime):
            edges.append((runtime.cause, runtime.effect, False, label))
        elif isinstance(runtime, DelayedForRuntime):
            edges.append((runtime.base, runtime.delayed,
                          runtime.depth >= 1, label))
        elif isinstance(runtime, PeriodicOnRuntime):
            edges.append((runtime.base, runtime.filtered,
                          runtime.offset > 0, label))
        elif isinstance(runtime, FilterByRuntime):
            edges.append((runtime.base, runtime.filtered,
                          not runtime.word[0], label))
        elif isinstance(runtime, SampledOnRuntime):
            edges.append((runtime.base, runtime.result, False, label))
            edges.append((runtime.trigger, runtime.result, False, label))
    return edges


def _strongly_connected(edges) -> list[set[str]]:
    """Kosaraju's algorithm (graphs here are tiny)."""
    forward: dict[str, set[str]] = {}
    backward: dict[str, set[str]] = {}
    nodes: set[str] = set()
    for cause, effect, _strict, _label in edges:
        forward.setdefault(cause, set()).add(effect)
        backward.setdefault(effect, set()).add(cause)
        nodes |= {cause, effect}

    order: list[str] = []
    seen: set[str] = set()
    for root in sorted(nodes):
        if root in seen:
            continue
        stack = [(root, iter(sorted(forward.get(root, ()))))]
        seen.add(root)
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append(
                        (child, iter(sorted(forward.get(child, ())))))
                    break
            else:
                order.append(node)
                stack.pop()

    components: list[set[str]] = []
    assigned: set[str] = set()
    for root in reversed(order):
        if root in assigned:
            continue
        component = {root}
        queue = [root]
        while queue:
            node = queue.pop(0)
            for previous in backward.get(node, ()):
                if previous not in assigned and previous not in component:
                    component.add(previous)
                    queue.append(previous)
        assigned |= component
        components.append(component)
    return components


@register_rule(
    "CCS002", severity="error", requires="execution_model",
    summary="strict precedence cycle: a strongly connected set of "
            "events none of which can ever fire first",
    confirm="`AG !occurs(<event>)` HOLDS for every event on the cycle")
def rule_precedence_cycle(handle):
    """Flag every SCC of the precedence digraph that contains a strict
    intra-SCC edge.

    Soundness: consider the hypothetical first step containing any SCC
    event. Every intra-SCC constraint is still in its initial state
    (its counters move only on SCC events), so each strict edge forbids
    its effect outright and each weak edge forces ``effect in step =>
    cause in step``. Walking backward from the supposed occurrence
    along an SCC path through the strict edge's effect yields either a
    weak chain pulling that forbidden effect into the step or a strict
    edge into an event already in the step — a contradiction either
    way. Pure-weak (``Causes``) cycles are excluded: simultaneous
    firing satisfies them.
    """
    model = handle.execution_model
    edges = precedence_edges(model)
    for component in _strongly_connected(edges):
        intra = [edge for edge in edges
                 if edge[0] in component and edge[1] in component]
        strict = [edge for edge in intra if edge[2]]
        if not strict:
            continue
        members = sorted(component)
        for event in members:
            yield _dead_event_diag(
                "CCS002", model, event,
                f"event {event!r} lies on a strict precedence cycle "
                f"{{{', '.join(members)}}} (via "
                f"{', '.join(sorted({e[3] for e in strict}))}) and can "
                f"never fire",
                data={"cycle": members})


@register_rule(
    "CCS003", severity="warning", requires="execution_model",
    summary="event bound to no constraint (free-running clock)",
    confirm="none (a free clock is legal; it doubles the step space "
            "per unconstrained event, which is usually an oversight)",
    frontends=("ccsl", "moccml"))
def rule_unconstrained_events(handle):
    model = handle.execution_model
    constrained: set[str] = set()
    for runtime in leaf_runtimes(model):
        constrained |= runtime.constrained_events
    for event in model.events:
        if event in constrained:
            continue
        yield Diagnostic(
            rule="CCS003", severity="warning",
            path=f"{model.name}.{event}",
            message=f"event {event!r} is bound to no constraint: it "
                    f"free-runs and doubles the step space",
            data={"event": event})


@register_rule(
    "CCS004", severity="error", requires="execution_model",
    summary="contradictory bounded-relation parameters (delay deeper "
            "than the precedence bound, clashing periodic filters, "
            "all-zero filter word)",
    confirm="`AG !occurs(<event>)` HOLDS for the strangled event")
def rule_parameter_contradictions(handle):
    model = handle.execution_model
    leaves = leaf_runtimes(model)

    # DelayedFor(d = b $ m) needs m occurrences of b before d may tick,
    # but Precedes(b, d, bound=n) caps count(b) - count(d) at n: with
    # m > n the base stalls before the delay elapses and d is dead.
    bounds: dict[tuple[str, str], list] = {}
    for runtime in leaves:
        if (isinstance(runtime, PrecedesRuntime)
                and runtime.bound is not None):
            bounds.setdefault(
                (runtime.cause, runtime.effect), []).append(runtime)
    for runtime in leaves:
        if not isinstance(runtime, DelayedForRuntime):
            continue
        for other in bounds.get((runtime.base, runtime.delayed), []):
            if runtime.depth <= other.bound:
                continue
            yield _dead_event_diag(
                "CCS004", model, runtime.delayed,
                f"{runtime.label} delays {runtime.delayed!r} by "
                f"{runtime.depth} occurrences of {runtime.base!r}, but "
                f"{other.label} lets it run only {other.bound} ahead: "
                f"{runtime.delayed!r} can never start",
                data={"constraints": [runtime.label, other.label]})

    # Two periodic filters of the same base into the same filtered
    # event must agree on some index: solvable iff the offsets agree
    # modulo gcd of the periods (Chinese remainders).
    periodic: dict[tuple[str, str], list] = {}
    for runtime in leaves:
        if isinstance(runtime, PeriodicOnRuntime):
            periodic.setdefault(
                (runtime.filtered, runtime.base), []).append(runtime)
    for (filtered, _base), group in sorted(periodic.items()):
        for index, first in enumerate(group):
            for second in group[index + 1:]:
                gcd = math.gcd(first.period, second.period)
                if (first.offset - second.offset) % gcd == 0:
                    continue
                yield _dead_event_diag(
                    "CCS004", model, filtered,
                    f"{first.label} and {second.label} never agree on "
                    f"an occurrence index (offsets differ modulo "
                    f"{gcd}): {filtered!r} can never tick",
                    data={"constraints": [first.label, second.label]})

    # An all-zero filter word keeps no occurrence at all.
    for runtime in leaves:
        if not isinstance(runtime, FilterByRuntime):
            continue
        word = runtime.word
        if "1" in word.prefix or "1" in word.period:
            continue
        yield _dead_event_diag(
            "CCS004", model, runtime.filtered,
            f"{runtime.label} filters by an all-zero word: "
            f"{runtime.filtered!r} can never tick",
            data={"constraints": [runtime.label]})
