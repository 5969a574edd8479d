"""Step-by-step simulation of an execution model under a policy.

:func:`simulate_model` is the engine-level driver; the workbench's
``SimulateSpec`` (see :mod:`repro.workbench`) is the recommended way to
invoke it.

A simulation steps the model kernel's local transition tables, the
layer explicit exploration steps too: the policy chooses from a
:class:`~repro.engine.tables.CompiledStateView` of the model's
configuration (``events``, ``acceptable_steps``, ``max_step``,
``is_acceptable``), and no constraint runtime re-runs on a step the
tables have seen. As in exploration, a run grows the table of a locally
unbounded constraint (an unbounded counter) by every new local state it
reaches. The caller's model is brought to the view's state from the
tables' snapshot tokens before each observer call and when the run
ends, however it ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.execution_model import ExecutionModel
from repro.engine.policies import SchedulingPolicy
from repro.engine.trace import Trace
from repro.errors import DeadlockError


@dataclass
class SimulationResult:
    """Outcome of a simulation run."""

    trace: Trace
    deadlocked: bool = False
    steps_run: int = 0
    #: why the run stopped: "budget", "deadlock" or "stop-condition"
    stop_reason: str = "budget"
    final_accepting: bool = True
    notes: list[str] = field(default_factory=list)


def simulate_model(model: ExecutionModel, policy: SchedulingPolicy,
                   max_steps: int, stop_when=None,
                   on_deadlock: str = "stop",
                   observers=()) -> SimulationResult:
    """Run *model* under *policy* for up to *max_steps* steps.

    The model is mutated in place; pass ``model.clone()`` to keep the
    original configuration pristine.

    Parameters
    ----------
    model:
        The execution model to drive.
    policy:
        The scheduling policy closing the concurrency choice; it chooses
        from a stepping view of the model (see the module docstring).
    max_steps:
        Step budget.
    stop_when:
        Optional predicate ``trace -> bool`` checked after each step.
    on_deadlock:
        ``"stop"`` ends the run marking ``deadlocked=True``;
        ``"raise"`` raises :class:`~repro.errors.DeadlockError`.
        A deadlock here means *no non-empty step is acceptable* —
        the system can only stutter forever.
    observers:
        Callables ``(step_index, step, model)`` invoked after each
        committed step, with *model* in the configuration that step
        reached — runtime monitors, progress reporting, animation front
        ends.
    """
    trace = Trace(model.events)
    result = SimulationResult(trace=trace)
    # policies whose steps are enumerated/extracted from the step
    # formula (or self-validated) need no second acceptability check
    check = not getattr(policy, "yields_acceptable_steps", False)
    view = model.kernel.table_view(model)
    try:
        for index in range(max_steps):
            step = policy.choose_from_model(view, index)
            if step is None:
                result.deadlocked = True
                result.stop_reason = "deadlock"
                if on_deadlock == "raise":
                    raise DeadlockError(
                        f"{model.name}: no acceptable non-empty step "
                        f"after {index} step(s)")
                break
            view.advance(step, check=check)
            trace.append(step)
            result.steps_run += 1
            if observers:
                model.restore(view.model_snapshot())
                for observer in observers:
                    observer(index, step, model)
            if stop_when is not None and stop_when(trace):
                result.stop_reason = "stop-condition"
                break
        result.final_accepting = view.is_accepting()
    finally:
        model.restore(view.model_snapshot())
    return result
