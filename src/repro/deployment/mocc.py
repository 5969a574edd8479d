"""Deployment constraints: the platform's contribution to the MoCC.

The paper (§II-A): "These constraints can also be of a different kinds,
for instance to express a deadline, a minimal throughput or an hardware
deployment." Two runtimes implement the hardware side:

* :class:`ProcessorMutexRuntime` — agents sharing a processor execute
  under mutual exclusion over their start..stop windows;
* :class:`CommDelayRuntime` — tokens crossing a processor boundary
  become readable only *latency* steps after they are written.

Both follow the ConstraintRuntime protocol, so they stack onto a woven
SDF execution model exactly like library constraints — this is what
"taking into account the unavoidable impacts introduced by the choice of
a deployment platform" means operationally.
"""

from __future__ import annotations

from typing import Hashable

from repro.boolalg.expr import And, BExpr, Not, TRUE, Var
from repro.errors import DeploymentError, SemanticsError
from repro.moccml.semantics.runtime import ConstraintRuntime


class ProcessorMutexRuntime(ConstraintRuntime):
    """Mutual exclusion of agent executions sharing one processor.

    *windows* maps each agent name to its ``(start, stop)`` engine
    events. An agent occupies the processor from the step its *start*
    occurs until the step its *stop* occurs (inclusive); an atomic
    firing — start and stop in the same step, the N=0 SDF abstraction —
    occupies it for that single step. No two agents may overlap, and no
    handover happens within a step (stop and another agent's start are
    still exclusive), modelling a context-switch penalty of one step.
    """

    def __init__(self, processor: str,
                 windows: dict[str, tuple[str, str]],
                 label: str | None = None):
        if len(windows) < 1:
            raise DeploymentError(
                f"processor {processor!r}: empty allocation window set")
        events: list[str] = []
        for start, stop in windows.values():
            events.append(start)
            events.append(stop)
        super().__init__(label or f"Mutex({processor})", events)
        self.processor = processor
        self.agents = list(windows)
        self.windows = dict(windows)
        #: name of the agent currently holding the processor, or None
        self.running: str | None = None

    def step_formula(self) -> BExpr:
        starts = [Var(self.windows[agent][0]) for agent in self.agents]
        if self.running is not None:
            # processor busy: nobody (including the holder) may start
            return And(*(Not(start) for start in starts))
        # idle: at most one agent may start this step
        pairwise = []
        for i, first in enumerate(starts):
            for second in starts[i + 1:]:
                pairwise.append(Not(And(first, second)))
        return And(*pairwise) if pairwise else TRUE

    def advance(self, step: frozenset[str]) -> None:
        started = [agent for agent in self.agents
                   if self.windows[agent][0] in step]
        if self.running is not None:
            if started:
                raise SemanticsError(
                    f"{self.label}: {started[0]!r} started while "
                    f"{self.running!r} holds the processor")
            if self.windows[self.running][1] in step:
                self.running = None
            return
        if len(started) > 1:
            raise SemanticsError(
                f"{self.label}: simultaneous starts {started}")
        if started:
            agent = started[0]
            if self.windows[agent][1] not in step:
                self.running = agent  # non-atomic execution: occupy

    def state_key(self) -> Hashable:
        return (self.label, self.running)

    def snapshot(self) -> Hashable:
        return self.running

    def restore(self, token) -> None:
        self.running = token

    def clone(self) -> "ProcessorMutexRuntime":
        copy = ProcessorMutexRuntime(self.processor, self.windows, self.label)
        copy.running = self.running
        return copy


class CommDelayRuntime(ConstraintRuntime):
    """Communication latency on a place crossing processors.

    Written tokens travel for *latency* steps before becoming readable.
    The capacity bookkeeping stays with the place's own
    ``PlaceConstraint``; this runtime only delays availability: *read*
    is forbidden unless at least *pop* matured tokens exist.

    State: matured token count plus the in-flight batches (age ->
    token count), kept as a small tuple for configuration hashing.
    """

    def __init__(self, write: str, read: str, push: int, pop: int,
                 latency: int, initial_tokens: int = 0,
                 label: str | None = None):
        super().__init__(label or f"CommDelay({write} ~{latency}~> {read})",
                         (write, read))
        if latency < 0:
            raise DeploymentError("latency must be >= 0")
        if push < 1 or pop < 1:
            raise DeploymentError("rates must be >= 1")
        self.write = write
        self.read = read
        self.push = push
        self.pop = pop
        self.latency = latency
        self.matured = initial_tokens
        #: in_flight[i] = tokens arriving in i+1 steps
        self.in_flight: tuple[int, ...] = (0,) * latency

    def step_formula(self) -> BExpr:
        if self.matured >= self.pop:
            return TRUE
        return Not(Var(self.read))

    def advance(self, step: frozenset[str]) -> None:
        if self.read in step and self.matured < self.pop:
            raise SemanticsError(
                f"{self.label}: read of {self.pop} token(s) but only "
                f"{self.matured} arrived")
        matured = self.matured
        if self.read in step:
            matured -= self.pop
        flight = list(self.in_flight)
        if self.write in step:
            if self.latency == 0:
                matured += self.push
            else:
                flight[self.latency - 1] += self.push
        if flight:
            # age the pipeline: tokens one step away mature now, so a
            # write with latency L becomes readable exactly L steps later
            matured += flight.pop(0)
            flight.append(0)
        self.matured = matured
        self.in_flight = tuple(flight)

    def state_key(self) -> Hashable:
        return (self.label, self.matured, self.in_flight)

    def snapshot(self) -> Hashable:
        return (self.matured, self.in_flight)

    def restore(self, token) -> None:
        self.matured, self.in_flight = token

    def clone(self) -> "CommDelayRuntime":
        copy = CommDelayRuntime(self.write, self.read, self.push, self.pop,
                                self.latency, self.matured, self.label)
        copy.in_flight = self.in_flight
        return copy
