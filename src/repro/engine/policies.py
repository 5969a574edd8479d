"""Scheduling policies: how a simulator picks one acceptable step.

The MoCC defines *which* steps are acceptable; it deliberately leaves
the choice among them open (that is the concurrency). Policies close
that choice for simulation purposes:

* :class:`RandomPolicy` — uniform choice, seeded for reproducibility;
* :class:`AsapPolicy` — as-soon-as-possible: a maximal step (greatest
  number of simultaneous events), the natural choice for observing the
  available parallelism. It reads the step off the step formula's BDD
  in one walk (``max_step``) instead of enumerating the candidates;
* :class:`MinimalPolicy` — a minimal non-empty step, serializing as much
  as possible;
* :class:`PriorityPolicy` — weighted choice by per-event priorities.

:func:`~repro.engine.simulator.simulate_model` hands a policy a stepping
view of the model's local tables
(:class:`~repro.engine.tables.CompiledStateView`), not the live model:
the view answers ``events``, ``acceptable_steps``, ``max_step`` and
``is_acceptable`` as an
:class:`~repro.engine.execution_model.ExecutionModel` does, so a policy
reads either one.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.errors import EngineError


class SchedulingPolicy:
    """Base class. ``choose`` picks one step among the candidates."""

    name = "abstract"

    #: True when every step returned by :meth:`choose_from_model` is
    #: guaranteed acceptable in the model's current configuration (it
    #: was enumerated from the step formula, extracted from the BDD, or
    #: validated by the policy itself). The simulator then skips the
    #: redundant re-validation in ``advance``. Policies that may return
    #: arbitrary steps (e.g. :class:`CallbackPolicy`) leave this False.
    yields_acceptable_steps = False

    def choose(self, candidates: Sequence[frozenset[str]],
               step_index: int) -> frozenset[str]:
        raise NotImplementedError

    def choose_from_model(self, model, step_index: int) -> frozenset[str] | None:
        """Pick the next step directly from an execution model or a
        stepping view of one (see the module docstring).

        The default enumerates the acceptable steps and delegates to
        :meth:`choose`; policies with a symbolic shortcut (ASAP)
        override this. Returns None on deadlock (no non-empty step).
        """
        candidates = model.acceptable_steps(include_empty=False)
        if not candidates:
            return None
        return self.choose(candidates, step_index)

    def _require(self, candidates: Sequence[frozenset[str]]) -> None:
        if not candidates:
            raise EngineError(
                f"policy {self.name!r} invoked with no candidate steps")


class RandomPolicy(SchedulingPolicy):
    """Uniformly random among the acceptable steps (seeded)."""

    name = "random"
    yields_acceptable_steps = True

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose(self, candidates, step_index):
        self._require(candidates)
        return self._rng.choice(list(candidates))


class AsapPolicy(SchedulingPolicy):
    """A maximal step: as many events as the constraints allow.

    :meth:`choose_from_model` extracts the step from the BDD of the
    step formula (:meth:`~repro.engine.execution_model.ExecutionModel.max_step`)
    instead of enumerating the (exponentially many) candidates; it is
    the policy's only way to choose. Ties are broken deterministically,
    so simulations are reproducible: the walk takes the true branch
    first at every event, in the model's event order — with the
    exclusive pairs ``e0|e1`` and ``e2|e3`` the step is ``{e0, e2}``.
    """

    name = "asap"
    yields_acceptable_steps = True

    def choose_from_model(self, model, step_index):
        return model.max_step()


class MinimalPolicy(SchedulingPolicy):
    """A minimal non-empty step (maximal serialization)."""

    name = "minimal"
    yields_acceptable_steps = True

    def choose(self, candidates, step_index):
        self._require(candidates)
        non_empty = [step for step in candidates if step]
        pool = non_empty or list(candidates)
        return min(pool, key=lambda step: (len(step), sorted(step)))


class PriorityPolicy(SchedulingPolicy):
    """Choose the step with the greatest total event priority.

    Unlisted events default to weight 0; ties break toward larger, then
    lexicographically smaller steps.
    """

    name = "priority"
    yields_acceptable_steps = True

    def __init__(self, weights: dict[str, int]):
        self.weights = dict(weights)

    def choose(self, candidates, step_index):
        self._require(candidates)
        return max(candidates, key=lambda step: (
            sum(self.weights.get(name, 0) for name in step),
            len(step),
            [-ord(c) for c in "".join(sorted(step))],
        ))


class ReplayPolicy(SchedulingPolicy):
    """Replay a recorded step sequence (a trace, or any list of steps).

    Validates at every step that the recorded step is still acceptable —
    the standard way to re-check a schedule against a *modified* MoCC
    (e.g. replaying an infinite-resource trace against a deployment).
    Raises :class:`EngineError` on divergence; returns None (deadlock)
    when the recording is exhausted.
    """

    name = "replay"
    yields_acceptable_steps = True  # validated explicitly below

    def __init__(self, steps):
        self.steps = [frozenset(step) for step in steps]

    def choose_from_model(self, model, step_index):
        if step_index >= len(self.steps):
            return None
        step = self.steps[step_index]
        if not model.is_acceptable(step):
            raise EngineError(
                f"replay diverged at step {step_index}: {sorted(step)} is "
                f"no longer acceptable")
        return step

    def choose(self, candidates, step_index):
        if step_index >= len(self.steps):
            raise EngineError("replay exhausted")
        return self.steps[step_index]


class CallbackPolicy(SchedulingPolicy):
    """Adapter turning a plain function into a policy (for tests and
    interactive front ends)."""

    name = "callback"

    def __init__(self, function: Callable[[Sequence[frozenset[str]], int],
                                          frozenset[str]]):
        self._function = function

    def choose(self, candidates, step_index):
        self._require(candidates)
        return self._function(candidates, step_index)
