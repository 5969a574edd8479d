"""Exhaustive exploration of the scheduling state space.

From the initial configuration, the explorer enumerates every
acceptable (non-empty) step and builds a
:class:`~repro.engine.statespace.StateSpace` — a directed multigraph
whose nodes are global constraint configurations and whose edges are
steps. This implements the paper's "exhaustive exploration" usage of the
generic engine.

Both strategies drive the same breadth-first skeleton over a
:class:`~repro.engine.tables.CompiledStateView`: a state is a tuple of
per-constraint local ids, a successor is one table lookup per
constraint, and no constraint runtime of the caller is touched.

* ``"explicit"`` — the view reads the model kernel's lazily filled
  local tables (:meth:`~repro.engine.execution_model.SymbolicKernel.\
  table_view`): a table runs its constraint's runtime only the first
  time a (local state, projected step) pair comes up, then every clone
  and every later exploration of the model family reads the memoized
  successor. No encodability requirement: a locally unbounded
  constraint's table just grows with the explored space;
* ``"symbolic"`` — the model is first compiled to a BDD transition
  system (:mod:`repro.engine.symbolic`), whose eagerly closed tables the
  view reads; the full reachable set is also available by fixpoint
  iteration without building any graph at all.

``"auto"`` picks symbolic for models past a size threshold and falls
back to explicit when the model cannot be finitely encoded. Both
strategies produce byte-identical state spaces (asserted corpus-wide by
:mod:`repro.engine.equivalence`), including ``max_states`` truncation
and frontier marking — the skeleton below is literally shared.
"""

from __future__ import annotations

from collections import deque

import networkx as nx

from repro import obs
from repro.engine.execution_model import ExecutionModel
from repro.engine.statespace import StateSpace
from repro.engine.tables import CompiledStateView
from repro.errors import EngineError, ExplorationLimitError, \
    SymbolicEncodingError

#: strategies accepted by :func:`explore`
STRATEGIES = ("explicit", "symbolic", "auto")

#: ``auto`` compiles a symbolic system once a model has at least this
#: many events — below it, explicit search wins on setup cost.
AUTO_EVENT_THRESHOLD = 10


def explore(model: ExecutionModel, max_states: int = 10_000,
            max_depth: int | None = None, include_empty: bool = False,
            strict: bool = False, maximal_only: bool = False,
            strategy: str = "explicit",
            relation_mode: str | None = None,
            cluster_cap: int | None = None) -> StateSpace:
    """Breadth-first exploration from the model's current configuration.

    Parameters
    ----------
    model:
        The execution model to explore; it is cloned, never mutated.
    max_states:
        State budget; hitting it marks the result as truncated (or
        raises with *strict*). Systems with unbounded counters —
        e.g. an unbounded CCSL precedence — have infinite configuration
        spaces, which this bound turns into a finite, truncated view.
    max_depth:
        Optional BFS depth bound.
    include_empty:
        Also follow the empty step when it changes the configuration
        (an automaton transition with only falseTriggers can fire on an
        empty step). Self-loop empty steps are always skipped.
    strict:
        Raise :class:`ExplorationLimitError` instead of truncating.
    maximal_only:
        Follow only ⊆-maximal steps — the ASAP sub-space. A reduction
        of the full branching that preserves peak-parallelism and
        throughput-upper-bound metrics while shrinking the transition
        count dramatically (every non-maximal step is a subset of a
        maximal one); deadlock freedom is NOT necessarily preserved in
        either direction, so safety verdicts must use the full space.
    strategy:
        ``"explicit"``, ``"symbolic"`` or ``"auto"`` (see module doc).
        The produced state space is identical either way.
    relation_mode / cluster_cap:
        Relation layout of the compiled system (symbolic strategies
        only; ``None`` keeps the engine defaults — see
        :data:`repro.engine.symbolic.RELATION_MODES`). The produced
        state space is identical under every layout.
    """
    work = _working_view(model, strategy, relation_mode=relation_mode,
                         cluster_cap=cluster_cap)
    return _bfs(work, model.name, list(model.events), max_states=max_states,
                max_depth=max_depth, include_empty=include_empty,
                strict=strict, maximal_only=maximal_only)


def _working_view(model: ExecutionModel, strategy: str,
                  relation_mode: str | None = None,
                  cluster_cap: int | None = None) -> CompiledStateView:
    """The BFS driver for *strategy*: a view over the kernel's lazily
    filled local tables (explicit) or over a compiled system's closed
    ones (symbolic)."""
    if strategy not in STRATEGIES:
        raise EngineError(
            f"unknown exploration strategy {strategy!r}; expected one of "
            f"{', '.join(STRATEGIES)}")
    if strategy == "explicit":
        return model.kernel.table_view(model)
    if strategy == "auto" and len(model.events) < AUTO_EVENT_THRESHOLD:
        return model.kernel.table_view(model)
    if strategy == "auto":
        # route through the static predictor instead of compiling just
        # to catch SymbolicEncodingError (the except below stays as the
        # safety net for predictor misses)
        from repro.engine.encodability import is_encodable
        if not is_encodable(model):
            return model.kernel.table_view(model)
    try:
        return CompiledStateView(model.kernel.transition_system(
            model, relation_mode=relation_mode, cluster_cap=cluster_cap))
    except SymbolicEncodingError:
        if strategy == "symbolic":
            raise
        from repro.engine.encodability import record_safety_net
        record_safety_net()
        return model.kernel.table_view(model)  # predictor miss


def _bfs(work, name: str, events: list[str], max_states: int,
         max_depth: int | None, include_empty: bool, strict: bool,
         maximal_only: bool) -> StateSpace:
    """The strategy-independent BFS skeleton.

    *work* is anything implementing the working-model protocol:
    ``configuration``/``snapshot``/``restore``/``acceptable_steps``/
    ``advance``/``is_accepting``. The strategies pass a
    :class:`~repro.engine.tables.CompiledStateView` (over the kernel's
    tables or a compiled system's), so admission order, truncation and
    frontier marking are identical across strategies by construction.
    A view's states are matched on their id tuples, and a configuration
    key is decoded only when a state is admitted. An
    :class:`ExecutionModel` clone implements the protocol too, by
    re-running its constraint runtimes edge by edge and matching states
    on their configurations — the reference the tables are tested
    against.
    """
    obs.count("explore.spaces")
    graph = nx.MultiDiGraph()
    identify = (work.snapshot if isinstance(work, CompiledStateView)
                else work.configuration)
    root = identify()
    key_to_id: dict = {root: 0}
    graph.add_node(0, accepting=work.is_accepting(), depth=0,
                   key=work.configuration())
    #: BFS frontier of (snapshot token, state identity, node id, depth)
    frontier: deque = deque([(work.snapshot(), root, 0, 0)])
    with obs.span("explore.bfs", model=name) as trace:
        truncated = _bfs_loop(work, identify, graph, key_to_id, frontier,
                              name, max_states=max_states,
                              max_depth=max_depth,
                              include_empty=include_empty, strict=strict,
                              maximal_only=maximal_only)
        trace.set(states=graph.number_of_nodes(),
                  transitions=graph.number_of_edges(), truncated=truncated)

    return StateSpace(graph=graph, initial=0, events=events,
                      truncated=truncated, name=name,
                      maximal_only=maximal_only)


def _bfs_loop(work, identify, graph, key_to_id: dict, frontier: deque,
              name: str, max_states: int, max_depth: int | None,
              include_empty: bool, strict: bool, maximal_only: bool) -> bool:
    """The admission loop of :func:`_bfs`, factored out so the whole
    walk sits under one ``explore.bfs`` span; *identify* names the state
    *work* is in. Returns the truncation flag."""
    truncated = False

    while frontier:
        snapshot, current, node_id, depth = frontier.popleft()
        if max_depth is not None and depth >= max_depth:
            graph.nodes[node_id]["frontier"] = True
            truncated = True
            continue
        work.restore(snapshot)
        steps = work.acceptable_steps(include_empty=include_empty)
        if maximal_only:
            steps = _maximal_steps(steps)
        for step in steps:
            work.advance(step, check=False)
            succ = identify()
            if not step and succ == current:
                work.restore(snapshot)
                continue  # stuttering self-loop carries no information
            if succ in key_to_id:
                succ_id = key_to_id[succ]
            else:
                if len(key_to_id) >= max_states:
                    if strict:
                        raise ExplorationLimitError(
                            f"exploration of {name!r} exceeded "
                            f"{max_states} states")
                    truncated = True
                    graph.nodes[node_id]["frontier"] = True
                    work.restore(snapshot)
                    continue
                succ_id = len(key_to_id)
                key_to_id[succ] = succ_id
                graph.add_node(succ_id, accepting=work.is_accepting(),
                               depth=depth + 1, key=work.configuration())
                frontier.append((work.snapshot(), succ, succ_id,
                                 depth + 1))
            graph.add_edge(node_id, succ_id, step=step)
            work.restore(snapshot)

    return truncated


def _maximal_steps(steps: list[frozenset[str]]) -> list[frozenset[str]]:
    """The ⊆-maximal elements of *steps* (order-preserving)."""
    maxima: list[frozenset[str]] = []
    for step in steps:
        if any(step < other for other in steps):
            continue
        maxima.append(step)
    return maxima
