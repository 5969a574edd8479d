"""Symbolic fixpoint reachability over the scheduling state space.

Explicit exploration walks the state graph breadth-first, one state and
one step at a time, through the per-constraint local transition tables
of :mod:`repro.engine.tables`. This module instead encodes the *whole
transition relation* as BDDs — event variables plus per-constraint
state bits (clock counters, automaton states, buffer occupancy) — and
computes the reachable configuration set by fixpoint image iteration,
the standard route from toy reachability to production-scale symbolic
verification.

The pipeline:

1. **Local closure.** Every constraint runtime gets a fresh
   :class:`~repro.engine.tables.LocalTable`, filled eagerly
   (:meth:`~repro.engine.tables.LocalTable.close`): starting from the
   current snapshot, all locally acceptable event assignments
   (projections of global steps onto the constraint's alphabet) are
   applied until no new ``state_key()`` appears. The closure
   over-approximates the globally reachable local states — which is
   exactly what an encoding needs — and fails fast
   (:class:`~repro.errors.SymbolicEncodingError`) on locally unbounded
   constraints, letting the ``auto`` check strategy fall back to
   explicit search. It is the same table class explicit exploration
   fills lazily; only the fill order differs.
2. **Topology-derived variable order.** Constraints are ordered by a
   greedy BFS over the connection graph (constraints sharing events are
   adjacent — for a pipeline this recovers the pipeline order), each
   constraint's current and primed state bits are interleaved, and each
   event variable is placed next to the first constraint that reads it.
   Free events land at the end.
3. **Relation construction.** Per constraint ``i`` the relation
   ``T_i(bits_i, events_i, bits_i')`` disjoins one cube per closed-table
   transition; the global relation is their conjunction, which by
   construction enforces the same global step conjunction the explicit
   engine evaluates. That conjunction is never built: adjacent parts
   are merged into clusters of at most :data:`DEFAULT_CLUSTER_CAP`
   nodes, and every image and preimage is a clustered relational
   product with early quantification (Burch, Clarke & Long 1991).
4. **Frontier fixpoint.** ``R_{k+1} = R_k ∨ rename(∃ state, events:
   T ∧ F_k)`` iterated until the frontier empties, keeping each BFS
   layer (the states first reached at each depth).

Counts and projections — state and layer counts, membership,
enumeration, one constraint's reachable local states — are read off
the reachable-set BDD without concretizing. Deadlock, event liveness
and variable bounds are CTL atoms (``deadlock``, ``occurs(e)``,
``var(label.name) op k``), answered on the same set by the checker of
:mod:`repro.engine.ctl`, whose EX/EF/EG/EU fixpoints run on
:meth:`TransitionSystem.preimage` — the backward relational product
paired with :meth:`~TransitionSystem.image`. On-demand concretization
back to an explicit :class:`~repro.engine.statespace.StateSpace`
(:meth:`TransitionSystem.to_statespace`) runs the very same BFS loop as
:func:`~repro.engine.explorer.explore`, over a
:class:`~repro.engine.tables.CompiledStateView` of the closed tables;
the two therefore produce byte-identical state spaces, including
truncation frontiers, which the :mod:`repro.engine.equivalence`
harness asserts.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from repro import obs
from repro.boolalg.bdd import Bdd, Memo
from repro.engine.tables import (CompiledStateView, LocalTable,
                                 TableStepper, _LruCache)
from repro.errors import EngineError, SymbolicEncodingError

#: local-closure guard rails: alphabets wider than this would make the
#: per-state assignment sweep exponential, and closures larger than this
#: signal a (locally) unbounded counter.
MAX_ALPHABET = 16
DEFAULT_MAX_LOCAL_STATES = 4_096

#: greedy cluster merging stops once a merged cluster would exceed this
#: many BDD nodes — small enough to keep early quantification effective,
#: large enough to amortize the per-cluster conjunction overhead.
DEFAULT_CLUSTER_CAP = 2_000
#: unique-table size past which a system's first dynamic variable
#: reorder (sifting) is due; the threshold re-arms at twice the table
#: after each firing (see :meth:`TransitionSystem._maybe_reorder`).
DEFAULT_AUTO_REORDER_THRESHOLD = 250_000
#: variable-sift budget per automatic reorder — bounds the worst case
#: (sifting is O(live table) per variable, and an automatic reorder
#: must never stall a fixpoint for minutes); an explicit
#: :meth:`TransitionSystem.reorder` runs until convergence instead.
DEFAULT_AUTO_REORDER_BUDGET = 32


def _close_local(index: int, runtime, max_local_states: int) -> LocalTable:
    """One runtime's local closure: a fresh table, filled eagerly."""
    with obs.span("symbolic.closure", constraint=runtime.label) as trace:
        alphabet = len(runtime.constrained_events)
        if alphabet > MAX_ALPHABET:
            raise SymbolicEncodingError(
                f"constraint {runtime.label!r} constrains {alphabet} "
                f"events; symbolic encoding caps local alphabets at "
                f"{MAX_ALPHABET}")
        table = LocalTable(index, runtime).close(max_local_states)
        trace.set(states=table.n_states)
    return table


def _constraint_order(constraints: Sequence) -> list[int]:
    """Greedy BFS over the constraint connection graph.

    Starts from a weakly connected constraint (an end of the pipeline),
    then repeatedly visits the unvisited neighbour sharing the most
    events — for chain/mesh topologies this keeps coupled state bits
    adjacent in the variable order, which is what keeps intermediate
    image BDDs small.
    """
    n = len(constraints)
    by_event: dict[str, list[int]] = {}
    for index, constraint in enumerate(constraints):
        for event in sorted(constraint.constrained_events):
            by_event.setdefault(event, []).append(index)
    weight: list[dict[int, int]] = [{} for _ in range(n)]
    for members in by_event.values():
        for a in members:
            for b in members:
                if a != b:
                    weight[a][b] = weight[a].get(b, 0) + 1
    order: list[int] = []
    seen: set[int] = set()
    while len(order) < n:
        start = min((i for i in range(n) if i not in seen),
                    key=lambda i: (len(weight[i]), i))
        queue = [start]
        seen.add(start)
        while queue:
            current = queue.pop(0)
            order.append(current)
            neighbours = sorted(weight[current].items(),
                                key=lambda item: (-item[1], item[0]))
            for neighbour, _shared in neighbours:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
    return order


def _node_ids(held) -> Iterator[int]:
    """The node ids in *held*: an int, a list or tuple's items', none in
    a name, and those any other value lists by ``reorder_roots()``."""
    if isinstance(held, int):
        yield held
    elif isinstance(held, (list, tuple)):
        for item in held:
            yield from _node_ids(item)
    elif not isinstance(held, str):
        yield from held.reorder_roots()


class TransitionSystem(TableStepper):
    """The BDD-encoded transition relation of one execution model.

    Owns a dedicated :class:`~repro.boolalg.bdd.Bdd` manager whose
    variable order follows the connection-topology heuristic (the
    model's :class:`~repro.engine.execution_model.SymbolicKernel` keeps
    event variables first, which is the right order for per-step
    enumeration but not for image computation — hence the second,
    purpose-ordered manager, cached on the kernel so clones share it).
    Its closed local tables (``tables``, one per constraint) are what
    the encoding is built from, and — through the inherited
    :class:`~repro.engine.tables.TableStepper` — what concretization
    and witness walks step through.
    """

    #: the stepping memos, plus the schedules, the reachable sets and the
    #: evaluators higher layers park (the CTL checker drops them past its cap)
    MEMOS = {**TableStepper.MEMOS,
             "schedules": Memo("_schedule_cache", 4, roots=True),
             "reachable_sets": Memo("_reachable_cache", 2, roots=True),
             "analyses": Memo("analysis_cache", 2, roots=True)}

    def __init__(self, model):
        obs.count("symbolic.compiles")
        with obs.span("symbolic.compile", model=model.name) as trace:
            self._build(model)
            trace.set(clusters=len(self._clusters),
                      bdd_nodes=self.bdd.node_count())

    def _build(self, model) -> None:
        self.name = model.name
        tables = [_close_local(index, constraint, DEFAULT_MAX_LOCAL_STATES)
                  for index, constraint in enumerate(model.constraints)]
        self.order: list[int] = _constraint_order(model.constraints)
        super().__init__(Bdd(), list(model.events), tables, self.order)
        #: table size past which the next automatic reorder is due
        self._reorder_at = DEFAULT_AUTO_REORDER_THRESHOLD
        self._declare_variables()
        self._compile_relation()
        self.initial_ids: tuple[int, ...] = tuple(0 for _ in self.tables)
        self.initial_node = self._encode_state(self.initial_ids)
        self._schedule_cache = _LruCache(self.MEMOS["schedules"].cap)
        self._reachable_cache = _LruCache(self.MEMOS["reachable_sets"].cap)
        #: image/preimage invocation counters (engine telemetry)
        self.image_count = 0
        self.preimage_count = 0
        #: scratch space for higher analysis layers (the CTL checker
        #: parks its reach-restricted evaluator here), each value listing
        #: its node ids by ``reorder_roots()``; it dies with the system
        self.analysis_cache: dict = {}

    # -- encoding ----------------------------------------------------------

    def _declare_variables(self) -> None:
        bdd = self.bdd
        event_position = {event: i for i, event in enumerate(self.events)}
        declared: set[str] = set()
        self.cur_names: list[list[str]] = [[] for _ in self.tables]
        self.primed_names: list[list[str]] = [[] for _ in self.tables]
        for index in self.order:
            table = self.tables[index]
            for event in sorted(table.alphabet, key=event_position.get):
                if event not in declared:
                    declared.add(event)
                    bdd.declare(event)
            for bit in range(table.bits):
                cur = f"#s{index}.{bit}"
                primed = f"#s{index}.{bit}'"
                bdd.declare(cur)
                bdd.declare(primed)
                self.cur_names[index].append(cur)
                self.primed_names[index].append(primed)
        for event in self.events:  # free events (constrained by nothing)
            if event not in declared:
                declared.add(event)
                bdd.declare(event)
        self.all_cur = [name for index in self.order
                        for name in self.cur_names[index]]
        self.all_primed = [name for index in self.order
                          for name in self.primed_names[index]]
        self.primed_to_cur = dict(zip(self.all_primed, self.all_cur))
        self.cur_to_primed = dict(zip(self.all_cur, self.all_primed))

    def _encode_local(self, index: int, local_id: int,
                      primed: bool = False) -> int:
        bdd = self.bdd
        names = (self.primed_names if primed else self.cur_names)[index]
        node = bdd.one
        for bit, name in enumerate(names):
            literal = bdd.var(name) if local_id >> bit & 1 else bdd.nvar(name)
            node = bdd.apply_and(node, literal)
        return node

    def _encode_state(self, ids: Sequence[int]) -> int:
        node = self.bdd.one
        for index in self.order:
            node = self.bdd.apply_and(node,
                                      self._encode_local(index, ids[index]))
        return node

    def _compile_relation(self) -> None:
        self._compile_formulas()
        self.parts: list[int] = []
        for index in self.order:
            self.parts.append(self._relation_part(index))
        self._clusters: list[int] = self._build_clusters()

    def _build_clusters(self) -> list[int]:
        """Greedily merge adjacent parts (topology order, so coupled
        constraints merge first) while the conjunction stays under the
        cluster-size cap — the conjunctive-partitioning granularity
        early quantification schedules against."""
        bdd = self.bdd
        clusters: list[int] = []
        current: int | None = None
        for part in self.parts:
            if current is None:
                current = part
                continue
            merged = bdd.apply_and(current, part)
            if bdd.size(merged) <= DEFAULT_CLUSTER_CAP:
                current = merged
            else:
                clusters.append(current)
                current = part
        if current is not None:
            clusters.append(current)
        return clusters

    def _reorder_roots(self) -> list[int]:
        """Every node id this system holds between operations — the
        live set a reorder must preserve, and the sifting objective it
        minimizes.

        The manager's reorder rewrites only rows reachable from its
        roots and invalidates the rest, so a node id held anywhere else
        is dead after the next reorder. The ids live in the initial
        node, the parts, the clusters, the formula nodes and the values
        of every memo whose :attr:`MEMOS` row says ``roots`` (a schedule
        holds them in lists; a reachable set or a CTL checker lists them
        by ``reorder_roots()``). The iterates a fixpoint loop holds in
        its locals are not here: the loop passes them to
        :meth:`_maybe_reorder` as arguments.
        """
        held = [self.initial_node, self.parts, self._clusters,
                self._formula_nodes]
        held.extend(list(getattr(self, row.attr).values())
                    for row in self.MEMOS.values() if row.roots)
        return list(_node_ids(held))

    def _maybe_reorder(self, *in_flight: int) -> None:
        """The one automatic reorder trigger, called between fixpoint
        iterations (no level-sensitive walk is in flight there) with
        the iterates the loop holds in locals as *in_flight*.

        It is also the manager's trim point inside a fixpoint: each
        call first drops every operation memo grown past its cap, so
        the memos stay bounded for as long as a fixpoint runs.

        Once the table has grown past ``_reorder_at``, the live
        structure is probed first: the append-only table also counts
        every transient intermediate, so growth is often *churn* under
        a healthy order, and sifting against that small live set would
        drop the caches and overfit the order to it. With at most an
        eighth of the table live the sift is skipped (counted as
        ``bdd.reorder_skips``); otherwise it sifts at most
        :data:`DEFAULT_AUTO_REORDER_BUDGET` variables. Either way the
        trigger re-arms at twice the table.
        """
        bdd = self.bdd
        bdd._trim_caches()
        if bdd.node_count() <= self._reorder_at or len(bdd.order) < 2:
            return
        roots = self._reorder_roots()
        roots.extend(in_flight)
        if bdd.size(*roots) * 8 <= bdd.node_count():
            obs.count("bdd.reorder_skips")
        else:
            bdd.reorder(roots, budget=DEFAULT_AUTO_REORDER_BUDGET)
        self._reorder_at = max(self._reorder_at, 2 * bdd.node_count())

    def reorder(self) -> int:
        """Sift the variable order to convergence now, against every
        node id this system holds, and re-arm the automatic trigger.
        Returns the live-node-count reduction. Call it between
        analyses: ids held outside this system are not preserved."""
        reduction = self.bdd.reorder(self._reorder_roots())
        self._reorder_at = max(self._reorder_at, 2 * self.bdd.node_count())
        return reduction

    def _relation_part(self, index: int) -> int:
        """``T_i``: one cube per discovered local transition."""
        bdd = self.bdd
        table = self.tables[index]
        part = bdd.zero
        for local_id, transitions in enumerate(table.delta):
            by_succ: dict[int, list[frozenset[str]]] = {}
            for assignment, succ in transitions.items():
                by_succ.setdefault(succ, []).append(assignment)
            moves = bdd.zero
            for succ in sorted(by_succ):
                triggers = bdd.zero
                for assignment in by_succ[succ]:
                    triggers = bdd.apply_or(
                        triggers, self._minterm(table.alphabet, assignment))
                moves = bdd.apply_or(
                    moves,
                    bdd.apply_and(triggers,
                                  self._encode_local(index, succ,
                                                     primed=True)))
            part = bdd.apply_or(
                part,
                bdd.apply_and(self._encode_local(index, local_id), moves))
        return part

    def _minterm(self, alphabet: Sequence[str],
                 assignment: frozenset[str]) -> int:
        bdd = self.bdd
        node = bdd.one
        for event in alphabet:
            literal = (bdd.var(event) if event in assignment
                       else bdd.nvar(event))
            node = bdd.apply_and(node, literal)
        return node

    # -- relation views ----------------------------------------------------

    def _schedule(self, include_empty: bool,
                  backward: bool) -> tuple[list[int], list[str], list[list[str]]]:
        """The early-quantification schedule of the clustered product.

        Returns ``(clusters, upfront, ready)``: the guard-first cluster
        chain, the quantified variables no cluster mentions (eliminated
        from the seed immediately), and per-cluster lists of variables
        whose *last* mention is that cluster — each is existentially
        quantified as soon as its cluster has been conjoined, which is
        what keeps the intermediate products small on wide topologies.
        Variable names are stable across reorders, so schedules survive
        sifting; they are cached per (include_empty, direction).
        """
        key = (include_empty, backward)
        cached = self._schedule_cache.get(key)
        if cached is not None:
            return cached
        # the guard: steps the explorer would follow — some event occurs,
        # plus, with include_empty, empty steps that change the
        # configuration (stuttering self-loops carry no information)
        bdd = self.bdd
        guard = bdd.zero
        for event in self.events:
            guard = bdd.apply_or(guard, bdd.var(event))
        if include_empty:
            same = bdd.one
            for cur, primed in zip(self.all_cur, self.all_primed):
                same = bdd.apply_and(same, bdd.apply_not(
                    bdd.apply_xor(bdd.var(cur), bdd.var(primed))))
            guard = bdd.apply_or(guard, bdd.apply_not(same))
        chain = [guard] + self._clusters
        quantify = (self.all_primed if backward else self.all_cur) \
            + self.events
        last: dict[str, int] = {}
        for position, cluster in enumerate(chain):
            for name in bdd.support(cluster):
                last[name] = position
        upfront = [name for name in quantify if name not in last]
        ready: list[list[str]] = [[] for _ in chain]
        for name in quantify:
            position = last.get(name)
            if position is not None:
                ready[position].append(name)
        cached = (chain, upfront, ready)
        self._schedule_cache.put(key, cached)
        return cached

    def _clustered_product(self, seed: int, include_empty: bool,
                           backward: bool) -> int:
        """``∃ quantified · seed ∧ guard ∧ ∧ clusters`` with early
        quantification — the clustered relational product."""
        bdd = self.bdd
        chain, upfront, ready = self._schedule(include_empty, backward)
        product = bdd.exists(seed, upfront) if upfront else seed
        for cluster, names in zip(chain, ready):
            if names:
                product = bdd.and_exists(product, cluster, names)
            else:
                product = bdd.apply_and(product, cluster)
            if product == bdd.zero:
                return bdd.zero
        return product

    def image(self, frontier: int, include_empty: bool = False) -> int:
        """Successor states of the *frontier* set, over current bits."""
        self.image_count += 1
        obs.count("symbolic.images")
        succ = self._clustered_product(frontier, include_empty,
                                       backward=False)
        return self.bdd.rename(succ, self.primed_to_cur)

    def preimage(self, targets: int, include_empty: bool = False) -> int:
        """Predecessor states of the *targets* set, over current bits.

        The backward relational product ``∃ events, primed:
        T ∧ targets[cur := primed]`` — the primitive every backward CTL
        fixpoint (EX/EF/EG/EU) is built from. *targets* must be a
        function of the current state bits; the current→primed shift
        uses the manager's general :meth:`~repro.boolalg.bdd.Bdd.\
        substitute` (the paired twin of the primed→current
        :meth:`~repro.boolalg.bdd.Bdd.rename` used by :meth:`image`).
        """
        self.preimage_count += 1
        obs.count("symbolic.preimages")
        primed = self.bdd.substitute(targets, self.cur_to_primed)
        return self._clustered_product(primed, include_empty, backward=True)

    def can_step_node(self, include_empty: bool = False) -> int:
        """States with at least one outgoing step (over current bits)."""
        return self._clustered_product(self.bdd.one, include_empty,
                                       backward=True)

    def occurs_node(self, event: str, include_empty: bool = False) -> int:
        """States with an outgoing step containing *event*."""
        if event not in self.events:
            raise EngineError(
                f"unknown event {event!r} in {self.name!r}; known: "
                f"{sorted(self.events)}")
        return self._clustered_product(self.bdd.var(event), include_empty,
                                       backward=True)

    def local_states_node(self, index: int, local_ids: Iterable[int]) -> int:
        """The set of states whose constraint *index* is in one of the
        given local states (a disjunction of current-bit cubes)."""
        bdd = self.bdd
        node = bdd.zero
        for local_id in local_ids:
            node = bdd.apply_or(node, self._encode_local(index, local_id))
        return node

    def count_states(self, node: int) -> int:
        return self.bdd.sat_count(node, self.all_cur)

    # -- fixpoint ----------------------------------------------------------

    def reachable_set(self, include_empty: bool = False) -> "ReachableSet":
        """The reachable set, by frontier fixpoint iteration from the
        initial state, cached on this system — repeated analyses of one
        model family (the property battery, successive ``check()``
        calls) share one fixpoint run."""
        cached = self._reachable_cache.get(include_empty)
        if cached is not None:
            return cached
        bdd = self.bdd
        reached = self.initial_node
        frontier = self.initial_node
        layers = [self.initial_node]
        depth = 0
        with obs.span("symbolic.fixpoint", model=self.name) as trace:
            while frontier != bdd.zero:
                with obs.span("symbolic.fixpoint.iteration",
                              depth=depth) as step:
                    successors = self.image(frontier, include_empty)
                    fresh = bdd.apply_and(successors, bdd.apply_not(reached))
                    if fresh == bdd.zero:
                        break
                    reached = bdd.apply_or(reached, fresh)
                    frontier = fresh
                    layers.append(fresh)
                    depth += 1
                    if obs.tracing_active():
                        # frontier sizing walks the BDD — only pay for
                        # it when someone is collecting the spans
                        step.set(frontier_nodes=bdd.size(frontier),
                                 reached_nodes=bdd.size(reached))
                    self._maybe_reorder(reached, *layers)
            trace.set(iterations=depth,
                      nodes=bdd.size(reached) if obs.tracing_active()
                      else None)
        cached = ReachableSet(self, reached, layers)
        self._reachable_cache.put(include_empty, cached)
        return cached

    # -- decoding ----------------------------------------------------------

    def to_statespace(self, max_states: int = 10_000,
                      max_depth: int | None = None,
                      include_empty: bool = False,
                      maximal_only: bool = False):
        """Concretize to an explicit :class:`StateSpace` (no fixpoint):
        the explorer's BFS over the closed tables, so byte-identical to
        ``explore(model, ...)`` with the same budgets."""
        from repro.engine.explorer import _bfs
        return _bfs(CompiledStateView(self), self.name, self.events,
                    max_states=max_states, max_depth=max_depth,
                    include_empty=include_empty, maximal_only=maximal_only)

    def encode_assignment(self, ids: Sequence[int]) -> dict[str, bool]:
        """A current-bit assignment selecting exactly the state *ids*."""
        assignment: dict[str, bool] = {}
        for index in range(len(self.tables)):
            for bit, name in enumerate(self.cur_names[index]):
                assignment[name] = bool(ids[index] >> bit & 1)
        return assignment

    # -- telemetry ---------------------------------------------------------

    def telemetry(self) -> dict[str, object]:
        """Engine counters for observability (bench harness, ``--json``
        output, the future admission controller): cluster count, peak
        BDD nodes (the table is append-only, so the total *is* the
        peak), dynamic-reorder count, image/preimage iterations and
        operation-cache hit rates. Never part of canonical artifacts —
        counters depend on evaluation history, not on the model.

        Prefer :func:`repro.obs.engine_snapshot` in new code — it
        resolves any engine-ish object (handle, kernel, reachable set,
        or this system) to this document through one API; this method
        stays as the per-system view it dispatches to."""
        bdd = self.bdd
        return {
            "clusters": len(self._clusters),
            "bdd_nodes": bdd.node_count(),
            "reorders": bdd.reorder_count,
            "images": self.image_count,
            "preimages": self.preimage_count,
            "cache": bdd.cache_stats(),
            "cache_sizes": bdd.cache_sizes(),
        }


class ReachableSet:
    """The complete reachable configuration set as a BDD, plus its BFS
    layers — a plain value that the fixpoint returns.

    Counts, membership, enumeration and per-constraint projections are
    read off the set without concretizing. It answers no questions:
    deadlock, liveness and bounds are CTL atoms
    (:func:`~repro.engine.ctl.check`), and
    :meth:`TransitionSystem.to_statespace` or
    :func:`~repro.engine.explorer.explore` give the explicit graph.
    """

    def __init__(self, system: TransitionSystem, node: int,
                 layers: list[int]):
        self.system = system
        self.node = node
        self.layers = layers

    def reorder_roots(self) -> list[int]:
        """The node ids this set holds: itself and its layers."""
        return [self.node, *self.layers]

    @property
    def depth(self) -> int:
        """Number of completed image iterations (BFS layers - 1)."""
        return len(self.layers) - 1

    def count(self) -> int:
        """Exact number of reachable states — no enumeration."""
        return self.system.count_states(self.node)

    def layer_counts(self) -> list[int]:
        return [self.system.count_states(layer) for layer in self.layers]

    def contains(self, ids: Sequence[int]) -> bool:
        return self.system.bdd.evaluate(
            self.node, self.system.encode_assignment(ids))

    def local_states(self, constraint: int | str) -> list[Hashable]:
        """Reachable local ``state_key()`` values of one constraint —
        the projection of the set onto that constraint's state bits
        (buffer occupancies, automaton states, counter values)."""
        system = self.system
        if isinstance(constraint, str):
            matches = [table for table in system.tables
                       if table.label == constraint]
            if not matches:
                raise EngineError(
                    f"no constraint labelled {constraint!r} in "
                    f"{system.name!r}")
            table = matches[0]
        else:
            table = system.tables[constraint]
        bdd = system.bdd
        mine = set(system.cur_names[table.index])
        others = [name for name in system.all_cur if name not in mine]
        projected = bdd.exists(self.node, others)
        ids = set()
        for model in bdd.iter_models(projected,
                                     system.cur_names[table.index]):
            local_id = sum(
                1 << bit
                for bit, name in enumerate(system.cur_names[table.index])
                if model[name])
            if local_id < table.n_states:
                ids.add(local_id)
        return [table.keys[local_id] for local_id in sorted(ids)]

    # -- enumeration -------------------------------------------------------

    def states(self) -> Iterator[tuple]:
        """Enumerate reachable configuration keys (deterministic order)."""
        system = self.system
        for model in system.bdd.iter_models(self.node, system.all_cur):
            ids = []
            for index in range(len(system.tables)):
                ids.append(sum(
                    1 << bit
                    for bit, name in enumerate(system.cur_names[index])
                    if model[name]))
            yield system.decode_key(ids)

    def __repr__(self):
        return (f"ReachableSet({self.system.name!r}, {self.count()} "
                f"states, depth {self.depth})")


def symbolic_reachable(model, include_empty: bool = False) -> ReachableSet:
    """The complete reachable configuration set of *model*, by fixpoint
    iteration.

    The compiled system and its fixpoint are cached on the model's
    symbolic kernel, so clones and later symbolic checks share them.
    Raises :class:`~repro.errors.SymbolicEncodingError` when the model
    cannot be finitely encoded (:func:`~repro.engine.explorer.explore`
    needs no encoding, and ``check(strategy="auto")`` starts with it).
    """
    system = model.kernel.transition_system(model)
    return system.reachable_set(include_empty=include_empty)
