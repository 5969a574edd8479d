"""Exhaustive exploration of the scheduling state space.

From the initial configuration, the explorer enumerates every
acceptable (non-empty) step and builds a
:class:`~repro.engine.statespace.StateSpace`: per-state lists indexed
by admission order, holding each global constraint configuration's
key, acceptance, depth and ``(step, target)`` edges. A state's edges
are grouped by target in first-seen order, step order within a target
— the order artifacts are written in. This implements the paper's
"exhaustive exploration" usage of the generic engine.

Exploration has one path: a breadth-first search over a
:class:`~repro.engine.tables.CompiledStateView` of the model kernel's
lazily filled local tables
(:meth:`~repro.engine.execution_model.SymbolicKernel.table_view`). A
state is a tuple of per-constraint local ids, a successor is one table
lookup per constraint, and a table runs its constraint's runtime only
the first time a (local state, projected step) pair comes up; every
clone and every later exploration of the model family reads the
memoized successor. No encodability requirement: a locally unbounded
constraint's table just grows with the explored space.

A compiled symbolic system concretizes through the same skeleton
(:meth:`~repro.engine.symbolic.TransitionSystem.to_statespace`, over
its eagerly closed tables), so the two spaces are byte-identical,
including ``max_states`` truncation and frontier marking — asserted
corpus-wide by :mod:`repro.engine.equivalence`. Strategy is a
property-check choice (:func:`repro.engine.ctl.check`), not an
exploration one.
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.engine.execution_model import ExecutionModel
from repro.engine.statespace import StateSpace, grouped_by_target
from repro.engine.tables import CompiledStateView


def explore(model: ExecutionModel, max_states: int = 10_000,
            max_depth: int | None = None, include_empty: bool = False,
            maximal_only: bool = False) -> StateSpace:
    """Breadth-first exploration from the model's current configuration.

    Parameters
    ----------
    model:
        The execution model to explore; it is cloned, never mutated.
    max_states:
        State budget; hitting it marks the result as truncated.
        Systems with unbounded counters — e.g. an unbounded CCSL
        precedence — have infinite configuration spaces, which this
        bound turns into a finite, truncated view.
    max_depth:
        Optional BFS depth bound.
    include_empty:
        Also follow the empty step when it changes the configuration
        (an automaton transition with only falseTriggers can fire on an
        empty step). Self-loop empty steps are always skipped.
    maximal_only:
        Follow only ⊆-maximal steps — the ASAP sub-space. A reduction
        of the full branching that preserves peak-parallelism and
        throughput-upper-bound metrics while shrinking the transition
        count dramatically (every non-maximal step is a subset of a
        maximal one); deadlock freedom is NOT necessarily preserved in
        either direction, so safety verdicts must use the full space.
    """
    return _bfs(model.kernel.table_view(model), model.name,
                list(model.events), max_states=max_states,
                max_depth=max_depth, include_empty=include_empty,
                maximal_only=maximal_only)


def _bfs(work, name: str, events: list[str], max_states: int,
         max_depth: int | None, include_empty: bool,
         maximal_only: bool) -> StateSpace:
    """The BFS skeleton.

    *work* is anything implementing the working-model protocol:
    ``configuration``/``snapshot``/``restore``/``acceptable_steps``/
    ``advance``/``is_accepting``. :func:`explore` and
    :meth:`~repro.engine.symbolic.TransitionSystem.to_statespace` pass
    a :class:`~repro.engine.tables.CompiledStateView` (over the
    kernel's tables or a compiled system's), so admission order,
    truncation and frontier marking are identical by construction.
    A view's states are matched on their id tuples, and a configuration
    key is decoded only when a state is admitted. An
    :class:`ExecutionModel` clone implements the protocol too, by
    re-running its constraint runtimes edge by edge and matching states
    on their configurations — the reference the tables are tested
    against.
    """
    obs.count("explore.spaces")
    identify = (work.snapshot if isinstance(work, CompiledStateView)
                else work.configuration)
    root = identify()
    key_to_id: dict = {root: 0}
    space = StateSpace(succ=[[]], accepting=[work.is_accepting()],
                       depth=[0], keys=[work.configuration()], initial=0,
                       events=events, name=name, maximal_only=maximal_only)
    #: BFS queue of (snapshot token, state identity, state id, depth)
    queue: deque = deque([(work.snapshot(), root, 0, 0)])
    with obs.span("explore.bfs", model=name) as trace:
        _bfs_loop(work, identify, space, key_to_id, queue,
                  max_states=max_states, max_depth=max_depth,
                  include_empty=include_empty, maximal_only=maximal_only)
        trace.set(states=space.n_states, transitions=space.n_transitions,
                  truncated=space.truncated)
    return space


def _bfs_loop(work, identify, space: StateSpace, key_to_id: dict,
              queue: deque, max_states: int,
              max_depth: int | None, include_empty: bool,
              maximal_only: bool) -> None:
    """The admission loop of :func:`_bfs`, factored out so the whole
    walk sits under one ``explore.bfs`` span; *identify* names the state
    *work* is in. Appends each admitted state to *space*'s per-state
    lists, sets each expanded state's edges, grouped by target (the
    artifact order), and marks truncation on *space*."""
    while queue:
        snapshot, current, state, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            space.frontier.add(state)
            space.truncated = True
            continue
        work.restore(snapshot)
        steps = work.acceptable_steps(include_empty=include_empty)
        if maximal_only:
            steps = _maximal_steps(steps)
        edges = []
        for step in steps:
            work.advance(step, check=False)
            reached = identify()
            if not step and reached == current:
                work.restore(snapshot)
                continue  # stuttering self-loop carries no information
            target = key_to_id.get(reached)
            if target is None:
                if len(key_to_id) >= max_states:
                    space.truncated = True
                    space.frontier.add(state)
                    work.restore(snapshot)
                    continue
                target = key_to_id[reached] = len(key_to_id)
                space.succ.append([])
                space.accepting.append(work.is_accepting())
                space.depth.append(depth + 1)
                space.keys.append(work.configuration())
                queue.append((work.snapshot(), reached, target, depth + 1))
            edges.append((step, target))
            work.restore(snapshot)
        space.succ[state] = grouped_by_target(edges)


def _maximal_steps(steps: list[frozenset[str]]) -> list[frozenset[str]]:
    """The ⊆-maximal elements of *steps* (order-preserving)."""
    maxima: list[frozenset[str]] = []
    for step in steps:
        if any(step < other for other in steps):
            continue
        maxima.append(step)
    return maxima
