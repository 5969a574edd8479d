"""Quantitative analyses over state spaces and execution models.

Yes/no questions about the state space — deadlock freedom, event
liveness, variable/buffer bounds — are CTL properties
(:func:`~repro.engine.ctl.check`). These helpers answer what CTL cannot
phrase: the steady-state throughput (maximum cycle mean, Karp's
algorithm) used to compare deployments in the PAM study, latencies,
the parallelism profile, exact variable bounds and the step-level
mutual exclusion check. :func:`symbolic_variable_bounds` reads its
min/max values off the reachable-set BDD of
:mod:`repro.engine.symbolic`, without concretizing a state graph. Like
the CTL atoms, the throughput and mutual-exclusion helpers refuse an
event the model does not declare.
"""

from __future__ import annotations

from fractions import Fraction

from repro.engine.ctl import Verdict
from repro.engine.execution_model import ExecutionModel
from repro.engine.policies import AsapPolicy, SchedulingPolicy
from repro.engine.simulator import simulate_model
from repro.engine.statespace import StateSpace
from repro.engine.trace import require_events
from repro.moccml.semantics.automata_rt import AutomatonRuntime


def parallelism_profile(space: StateSpace) -> dict[str, float]:
    """Aggregate parallelism metrics of a state space."""
    histogram = space.parallelism_histogram()
    total = sum(histogram.values())
    mean = (sum(size * count for size, count in histogram.items()) / total
            if total else 0.0)
    return {
        "max": float(space.max_parallelism()),
        "mean": round(mean, 4),
        "transitions": float(total),
    }


def variable_bounds(model: ExecutionModel, space: StateSpace | None = None
                    ) -> dict[str, tuple[int, int]]:
    """Min/max observed value per automaton variable.

    With a *space*, bounds are read from the explored configuration keys
    (exact over the explored region); otherwise only the current values
    are reported.
    """
    bounds: dict[str, tuple[int, int]] = {}

    def record(label: str, variables: dict[str, int]) -> None:
        for var_name, value in variables.items():
            key = f"{label}.{var_name}"
            low, high = bounds.get(key, (value, value))
            bounds[key] = (min(low, value), max(high, value))

    if space is None:
        for constraint in model.constraints:
            if isinstance(constraint, AutomatonRuntime):
                record(constraint.label, constraint.variables)
        return bounds

    # configuration keys are tuples of per-constraint state keys; automata
    # use the shape (label, state_name, ((var, value), ...))
    automaton_labels = {
        constraint.label for constraint in model.constraints
        if isinstance(constraint, AutomatonRuntime)}
    for configuration in space.keys or ():
        for part in configuration:
            if (isinstance(part, tuple) and len(part) == 3
                    and part[0] in automaton_labels
                    and isinstance(part[2], tuple)):
                label = part[0]
                record(label, dict(part[2]))
    return bounds


def simulated_throughput(model: ExecutionModel, events: list[str],
                         steps: int = 200,
                         policy: SchedulingPolicy | None = None
                         ) -> dict[str, float]:
    """Observed per-step throughput of *events* over a policy-driven run.

    The simulation executes on *model* itself — sharing its persistent
    symbolic kernel, so repeated analyses of one model reuse compiled
    constraint nodes — and rewinds to the initial snapshot afterwards,
    leaving the model's configuration untouched. Defaults to the ASAP
    policy, giving a quick simulated estimate to compare against the
    exact :func:`max_cycle_mean_throughput`.
    """
    require_events(events, model.events, model.name)
    policy = policy if policy is not None else AsapPolicy()
    initial = model.snapshot()
    try:
        result = simulate_model(model, policy, steps)
    finally:
        model.restore(initial)
    return {event: result.trace.throughput(event) for event in events}


def max_cycle_mean_throughput(space: StateSpace, event: str) -> float:
    """Best steady-state throughput of *event*: the maximum, over
    reachable cycles, of (occurrences of *event* on the cycle) divided by
    (cycle length in steps). Computed per strongly connected component
    with Karp's maximum cycle mean algorithm. Returns 0.0 when the space
    has no cycle.
    """
    require_events([event], space.events, space.name)
    best = Fraction(0)
    for component in space.recurrent_components():
        mean = _karp_max_cycle_mean(space, component, event)
        if mean is not None and mean > best:
            best = mean
    return float(best)


def _karp_max_cycle_mean(space: StateSpace, component: set[int],
                         event: str) -> Fraction | None:
    """Karp's algorithm on one strongly connected *component* of
    *space*, over the edges that stay inside it.

    Edge weight = 1 if the step contains *event* else 0; the maximum
    cycle mean of those weights is occurrences-per-step.
    """
    nodes = sorted(component)
    if not nodes:
        return None
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    source = nodes[0]

    # collapse parallel edges, keeping the max weight per (u, v)
    weights: dict[tuple[int, int], int] = {}
    for u in nodes:
        for step, v in space.succ[u]:
            if v not in index:
                continue
            w = 1 if event in step else 0
            key = (index[u], index[v])
            if key not in weights or w > weights[key]:
                weights[key] = w
    if not weights:
        return None

    minus_inf = float("-inf")
    # progression[k][v] = max weight of a k-edge walk from source to v
    progression = [[minus_inf] * n for _ in range(n + 1)]
    progression[0][index[source]] = 0
    for k in range(1, n + 1):
        row = progression[k]
        prev = progression[k - 1]
        for (u, v), w in weights.items():
            if prev[u] != minus_inf and prev[u] + w > row[v]:
                row[v] = prev[u] + w

    best: Fraction | None = None
    for v in range(n):
        if progression[n][v] == minus_inf:
            continue
        worst: Fraction | None = None
        for k in range(n):
            if progression[k][v] == minus_inf:
                continue
            candidate = Fraction(int(progression[n][v] - progression[k][v]),
                                 n - k)
            if worst is None or candidate < worst:
                worst = candidate
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def occurrence_latency(trace, cause: str, effect: str) -> list[int]:
    """Per-occurrence latency: steps between the i-th *cause* and the
    i-th *effect* occurrence in a trace (pipeline source→sink latency).

    Only pairs where the effect does not precede its cause are counted;
    unmatched trailing causes are ignored. An event outside the trace's
    events is an :class:`~repro.errors.EngineError`.
    """
    require_events([cause, effect], trace.events, "trace")
    causes = trace.occurrence_indices(cause)
    effects = trace.occurrence_indices(effect)
    latencies = []
    for cause_step, effect_step in zip(causes, effects):
        if effect_step >= cause_step:
            latencies.append(effect_step - cause_step)
    return latencies


def symbolic_variable_bounds(model: ExecutionModel
                             ) -> dict[str, tuple[int, int]]:
    """Min/max value per automaton variable over the complete reachable
    set — exact, computed from the per-constraint projections of the
    reachable-set BDD (cf. :func:`variable_bounds` for explored graphs).
    """
    from repro.engine.symbolic import symbolic_reachable
    reachable = symbolic_reachable(model)
    bounds: dict[str, tuple[int, int]] = {}
    for index, constraint in enumerate(model.constraints):
        if not isinstance(constraint, AutomatonRuntime):
            continue
        for key in reachable.local_states(index):
            # automaton state keys: (label, state_name, ((var, value), ...))
            for var_name, value in key[2]:
                slot = f"{constraint.label}.{var_name}"
                low, high = bounds.get(slot, (value, value))
                bounds[slot] = (min(low, value), max(high, value))
    return bounds


def check_mutual_exclusion(space: StateSpace, events: list[str]) -> Verdict:
    """Whether no transition step takes two of *events* at once — used
    to verify processor mutual exclusion after deployment.

    A step-level question CTL cannot phrase (its ``occurs(e)`` means
    *enabled*, not *taken*). ``FAILS`` on an explored violating step,
    which is a real acceptable step even on a partial space; without
    one, ``UNKNOWN`` on a truncated or ``maximal_only`` space and
    ``HOLDS`` on a complete one. An event the space does not declare
    raises :class:`~repro.errors.EngineError`, as the CTL atoms do.
    """
    require_events(events, space.events, space.name)
    event_set = set(events)
    for _source, step, _target in space.edges():
        if len(step & event_set) > 1:
            return Verdict.FAILS
    if space.truncated or space.maximal_only:
        return Verdict.UNKNOWN
    return Verdict.HOLDS
