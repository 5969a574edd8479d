"""Local transition tables: the one way the engine steps a model.

Every constraint runtime is a state machine over its own alphabet, so
its behaviour can be tabulated once and read back instead of being
re-run edge by edge. A :class:`LocalTable` maps (local-state id, step
projected on the constraint's alphabet) to a successor id and keeps, per
id, the runtime's ``state_key()``, a ``snapshot()`` token, the accepting
flag and the step formula. On a miss it restores a private *probe*
runtime from the id's token, advances it on the projection and admits
the state it reaches, so a table fills only as far as it is walked; a
locally unbounded constraint (an unbounded counter, a communication
delay nobody reads) simply grows with the explored space.

A table also learns, once per id, whether a step that names none of its
events leaves it where it is (:meth:`LocalTable.stutters`): true of
most constraints, but not of a deadline (it counts every step), a
communication delay (it ages tokens in flight) or a MoCCML automaton
with an ``unless``-only transition. It learns this from a probe of the
empty projection, never probing an id whose formula rejects that
projection.

Two owners hold tables, and both step through :class:`TableStepper`:

* a model family's :class:`~repro.engine.execution_model.SymbolicKernel`
  holds one lazily filled table per constraint slot, shared by clones —
  explicit exploration and simulation walk these;
* a compiled :class:`~repro.engine.symbolic.TransitionSystem` fills
  fresh tables eagerly (:meth:`LocalTable.close`, the local closure in
  breadth-first id order), and builds its BDD encoding from them.

:class:`CompiledStateView` is the one stepping view over either
owner: the explorer's breadth-first search and the simulator both run
on it. A state is a tuple of local ids. A successor costs what its step
names, not what the model holds: one dict lookup per constraint whose
alphabet the step names, plus one per constraint that does not stutter
at that state (found once per state); every other constraint keeps its
id. The acceptable steps at a state are the owner's memoized
enumeration of the conjunction of per-id formula nodes
(:meth:`TableStepper.steps_of`, the same enumeration
:meth:`~repro.engine.execution_model.ExecutionModel.acceptable_steps`
uses on a live model).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Sequence

from repro.boolalg.bdd import Memo
from repro.boolalg.expr import BExpr
from repro.errors import EngineError, SemanticsError, SymbolicEncodingError

#: cache-miss sentinel (None is a legitimate cached value for max_step)
_MISSING = object()

#: the projection of a step that names none of a table's events
_EMPTY: frozenset[str] = frozenset()


class _LruCache:
    """A small bounded mapping with least-recently-used eviction."""

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        data = self._data
        value = data.get(key, _MISSING)
        if value is _MISSING:
            return default
        data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def values(self):
        return list(self._data.values())

    def clear(self) -> None:
        self._data.clear()


class LocalTable:
    """The memoized local transition system of one constraint runtime.

    ``keys[s]``, ``tokens[s]``, ``accepting[s]`` and ``formulas[s]`` are
    the runtime's ``state_key()``, ``snapshot()``, ``is_accepting()`` and
    ``step_formula()`` in local state ``s``; ``delta[s]`` maps a
    projected step (the frozenset of the constraint's events occurring)
    to the successor id. State ``0`` is the runtime's state when the
    table was made. A *closed* table (:meth:`close`) holds every locally
    acceptable transition, so a miss there is an unacceptable step.

    ``idle[s]`` says whether the empty projection is a self-loop at
    ``s`` (``None`` until :meth:`stutters` learns it), and
    ``unsettled`` counts the admitted ids not known to stutter: a table
    at 0 is *settled*, and a successor need not read it unless the step
    names its events.
    """

    __slots__ = ("index", "label", "alphabet", "events", "keys", "tokens",
                 "accepting", "formulas", "delta", "idle", "unsettled",
                 "key_to_id", "bits", "closed", "_probe")

    def __init__(self, index: int, runtime):
        self.index = index
        self.label = runtime.label
        self.alphabet: tuple[str, ...] = tuple(
            sorted(runtime.constrained_events))
        self.events = frozenset(self.alphabet)
        self.keys: list[Hashable] = []
        self.tokens: list = []
        self.accepting: list[bool] = []
        self.formulas: list[BExpr] = []
        self.delta: list[dict[frozenset[str], int]] = []
        #: per id: whether the empty projection is a self-loop there
        #: (None until :meth:`stutters` learns it)
        self.idle: list[bool | None] = []
        #: admitted ids not known to stutter; 0 once the table is settled
        self.unsettled = 0
        self.key_to_id: dict[Hashable, int] = {}
        self.bits = 0  # state bits of the encoding, set by close()
        self.closed = False
        self._probe = runtime.clone()
        self._admit()

    @property
    def n_states(self) -> int:
        return len(self.keys)

    def _admit(self) -> int:
        """The id of the probe's current state, admitting it when new."""
        probe = self._probe
        key = probe.state_key()
        known = self.key_to_id.get(key)
        if known is not None:
            return known
        local_id = len(self.keys)
        self.key_to_id[key] = local_id
        self.keys.append(key)
        self.tokens.append(probe.snapshot())
        self.accepting.append(bool(probe.is_accepting()))
        self.formulas.append(probe.step_formula())
        self.delta.append({})
        self.idle.append(None)
        self.unsettled += 1
        return local_id

    def locate(self, runtime) -> int:
        """The id of *runtime*'s current state, admitting it when new.

        *runtime* must belong to this table's slot (the runtime the table
        was made from, or a clone of it); it is only read."""
        known = self.key_to_id.get(runtime.state_key())
        if known is None:
            self._probe.restore(runtime.snapshot())
            known = self._admit()
        return known

    def step(self, local_id: int, projection: frozenset[str]) -> int:
        """The successor of *local_id* under *projection*, filled in from
        the probe runtime on a miss."""
        successor = self.delta[local_id].get(projection)
        if successor is None:
            if self.closed:
                raise EngineError(
                    f"step {sorted(projection)} is not acceptable to "
                    f"{self.label!r} in local state {self.keys[local_id]!r}")
            probe = self._probe
            probe.restore(self.tokens[local_id])
            probe.advance(projection)
            successor = self._admit()
            self.delta[local_id][projection] = successor
        return successor

    def stutters(self, local_id: int) -> bool:
        """Whether a step that names none of this table's events leaves
        *local_id* where it is, learnt once per id.

        A filled-in empty transition answers it. Otherwise, on a lazy
        table whose formula at *local_id* accepts the empty projection,
        the probe runtime takes that projection once; a self-loop is
        recorded in ``delta``, any other state it reaches is not
        admitted. A formula that rejects the empty projection is never
        probed (every acceptable step names the table there, and a
        runtime such as a deadline at its expiry raises on the empty
        projection), and counts as not stuttering, as does a runtime
        whose ``advance()`` refuses it.
        """
        idle = self.idle[local_id]
        if idle is None:
            target = self.delta[local_id].get(_EMPTY)
            formula = self.formulas[local_id]
            if target is None and not self.closed and formula.evaluate(
                    dict.fromkeys(formula.support(), False)):
                probe = self._probe
                probe.restore(self.tokens[local_id])
                try:
                    probe.advance(_EMPTY)
                except SemanticsError:
                    pass
                else:
                    if probe.state_key() == self.keys[local_id]:
                        target = self.delta[local_id][_EMPTY] = local_id
            idle = self.idle[local_id] = target == local_id
            if idle:
                self.unsettled -= 1
        return idle

    def close(self, max_states: int) -> "LocalTable":
        """Fill the table eagerly: from every admitted state, in id order,
        take every locally acceptable assignment, in assignment-mask
        order, until no new state appears. Raises
        :class:`SymbolicEncodingError` past *max_states* local states (a
        locally unbounded constraint) or on a runtime whose formula and
        ``advance()`` disagree. Returns the table, now closed."""
        alphabet = self.alphabet
        names = set(alphabet)
        cursor = 0
        while cursor < len(self.keys):
            formula = self.formulas[cursor]
            unknown = formula.support() - names
            if unknown:
                raise SymbolicEncodingError(
                    f"constraint {self.label!r} reads event(s) "
                    f"{sorted(unknown)} outside its declared alphabet")
            for mask in range(1 << len(alphabet)):
                assignment = frozenset(
                    alphabet[bit] for bit in range(len(alphabet))
                    if mask >> bit & 1)
                if not formula.evaluate(
                        {name: name in assignment for name in alphabet}):
                    continue
                try:
                    self.step(cursor, assignment)
                except SemanticsError as exc:
                    raise SymbolicEncodingError(
                        f"constraint {self.label!r} accepted step "
                        f"{sorted(assignment)} in its formula but rejected "
                        f"it in advance(): {exc}") from exc
                if len(self.keys) > max_states:
                    raise SymbolicEncodingError(
                        f"constraint {self.label!r} exceeded the "
                        f"local-state closure bound ({max_states}); it is "
                        f"likely unbounded — explore it, or check it with "
                        f"strategy='explicit'")
            cursor += 1
        self.bits = max(1, (len(self.keys) - 1).bit_length())
        self.closed = True
        return self


class TableStepper:
    """Stepping over per-constraint local tables within one BDD manager.

    The base of both table owners (see the module docstring). It
    memoizes the global step conjunction per tuple of compiled formula
    nodes, and the enumerated steps and the maximal step per conjunction
    node — hash-consing makes a node id a canonical key for its boolean
    function, so any two configurations with the same acceptable steps
    share one enumeration. Per-id formula nodes are compiled on first
    use. Every memo is a row of :attr:`MEMOS`, bounded by its cap: an
    owner lives as long as its model family, so unbounded dicts would
    grow with every exploration (eviction merely costs a recompute).
    The conjunction, step and maximal-step memos are LRUs; two more are
    plain dicts dropped whole past their caps:

    * ``touches``: per distinct step, the slots it names with their
      projections (equal projections shared), which :meth:`successor`
      reads instead of intersecting the step with every alphabet;
    * ``models``: per BDD node, its enumerated models, which
      :meth:`steps_of` shares across conjunctions. Positions follow the
      variable order, so the memo is kept with the manager's
      ``reorder_count`` (its *epoch*) and rebuilt after a reorder.

    :meth:`successor` also keeps the slots that may move on the empty
    projection at the state it last stepped from, so the edges of one
    state find them once.

    *leaf_order* lists the constraint slots in the order the conjunction
    tree takes them (:func:`~repro.engine.symbolic._constraint_order`:
    coupled constraints side by side).
    """

    #: the stepping memos (see :class:`~repro.boolalg.bdd.Memo`); the
    #: conjunctions hold the node ids a compiled system roots
    MEMOS = {"conjunctions": Memo("_conj_cache", 8_192, roots=True),
             "steps": Memo("_steps_cache", 4_096),
             "max_steps": Memo("_max_step_cache", 4_096),
             "touches": Memo("_touches_cache", 4_096),
             "models": Memo("_models_cache", 200_000)}

    def __init__(self, bdd, events: Sequence[str],
                 tables: list[LocalTable], leaf_order: Sequence[int]):
        self.bdd = bdd
        self.events = events
        self._event_set = frozenset(events)
        self.leaf_order = tuple(leaf_order)
        self._adopt(tables)
        self._conj_cache = _LruCache(self.MEMOS["conjunctions"].cap)
        self._steps_cache = _LruCache(self.MEMOS["steps"].cap)
        self._max_step_cache = _LruCache(self.MEMOS["max_steps"].cap)
        #: :meth:`_models`' memo, node -> (its position, its models), and
        #: the (epoch, events in level order, level -> position) of it
        self._models_cache: dict[int, tuple] = {}
        self._models_order: tuple = ()

    def _adopt(self, tables: list[LocalTable]) -> None:
        """Step through *tables* from now on."""
        self.tables = tables
        #: compiled step-formula node per (slot, local id)
        self._formula_nodes: list[list[int]] = [[] for _ in tables]
        #: the slots whose alphabet holds each event
        slots_of: dict[str, list[int]] = {}
        for slot, table in enumerate(tables):
            for event in table.alphabet:
                slots_of.setdefault(event, []).append(slot)
        self._slots_of = slots_of
        #: step -> (slot, table, projection) of each slot it names
        self._touches_cache: dict[frozenset[str], tuple] = {}
        #: one object per distinct projection the touches hold
        self._projections: dict[frozenset[str], frozenset[str]] = {}
        #: (the state :meth:`successor` last stepped from, its slots that
        #: may move on the empty projection)
        self._moving: tuple = (None, [])

    def cache_sizes(self) -> dict[str, int]:
        """Entries per memo, by its :attr:`MEMOS` name."""
        return {name: len(getattr(self, row.attr))
                for name, row in self.MEMOS.items()}

    def conjunction(self, nodes: tuple[int, ...]) -> int:
        """The conjunction of compiled constraint *nodes*, given in slot
        order (memoized).

        The nodes are folded as a balanced tree over :attr:`leaf_order`,
        and every subtree is memoized: a successor whose constraints
        changed k formulas redoes about k·log n pairwise ANDs, where a
        left fold redoes every AND after the first changed slot. The
        manager's caches are trimmed once the whole tree is built.
        """
        leaves = tuple([nodes[slot] for slot in self.leaf_order])
        if not leaves:
            return self.bdd.one
        conjunction = self._conj_cache.get(leaves, _MISSING)
        if conjunction is _MISSING:
            conjunction = self._conjoin(leaves)
            self.bdd._trim_caches()
        return conjunction

    def _conjoin(self, leaves: tuple[int, ...]) -> int:
        if len(leaves) == 1:
            return leaves[0]
        conjunction = self._conj_cache.get(leaves, _MISSING)
        if conjunction is _MISSING:
            half = len(leaves) // 2
            conjunction = self.bdd.apply_and(self._conjoin(leaves[:half]),
                                             self._conjoin(leaves[half:]))
            self._conj_cache.put(leaves, conjunction)
        return conjunction

    def steps_of(self, node: int,
                 include_empty: bool = False) -> tuple[frozenset[str], ...]:
        """The steps satisfying conjunction *node*, ordered by size, then
        by sorted event names; the empty step only with
        *include_empty*."""
        key = (node, include_empty)
        steps = self._steps_cache.get(key)
        if steps is None:
            models = [sorted(model) for model in self._models(node)
                      if model or include_empty]
            models.sort(key=lambda model: (len(model), model))
            steps = tuple([frozenset(model) for model in models])
            self._steps_cache.put(key, steps)
        return steps

    def _models(self, node: int) -> list[tuple[str, ...]]:
        """Every assignment of the events satisfying *node*, as the tuple
        of its true events (a shared list: read it, never change it):
        one pass over the BDD in event-level order, which expands each
        event a path skips (a free level) both ways. Raises
        :class:`ValueError` when *node* reads a variable that is not an
        event.

        The per-node models are kept across calls for one variable
        order, with the manager's ``reorder_count``, the events in level
        order and their positions: the memo is rebuilt when a reorder
        moved the levels, and dropped once it holds more nodes than its
        cap."""
        bdd = self.bdd
        rows = bdd._nodes
        zero, one = bdd.zero, bdd.one
        below = self._models_cache
        if not below or self._models_order[0] != bdd.reorder_count:
            names = sorted(self.events, key=bdd.declare)
            self._models_order = (
                bdd.reorder_count, names,
                {bdd.declare(name): index for index, name in enumerate(names)})
            below.clear()
            below[one] = (len(names), [()])
        _epoch, names, position = self._models_order

        def models_of(current: int, start: int) -> list:
            """The models of *current* over the events from position
            *start* on: its own, then each event it skips both ways."""
            entry = below.get(current)
            if entry is None:
                level, low, high = rows[current]
                at = position.get(level)
                if at is None:
                    missing = sorted(bdd.support(node) - self._event_set)
                    raise ValueError(
                        f"step enumeration must cover the support; "
                        f"missing {missing}")
                models = [] if low == zero else models_of(low, at + 1)
                if high != zero:
                    name = names[at]
                    models = models + [(name,) + model for model
                                       in models_of(high, at + 1)]
                entry = below[current] = (at, models)
            at, models = entry
            if at > start:
                for name in names[start:at]:
                    models = models + [(name,) + model for model in models]
            return models

        models = [] if node == zero else models_of(node, 0)
        if len(below) > self.MEMOS["models"].cap:
            below.clear()
        return models

    def max_step_of(self, node: int) -> frozenset[str] | None:
        """A maximal step satisfying conjunction *node* (memoized), or
        None when only the empty step does — see
        :meth:`~repro.engine.execution_model.ExecutionModel.max_step`."""
        step = self._max_step_cache.get(node, _MISSING)
        if step is _MISSING:
            model = self.bdd.max_true_model(node, self.events)
            step = None if model is None else frozenset(
                name for name, value in model.items() if value) or None
            self._max_step_cache.put(node, step)
        return step

    def accepts(self, node: int, step: frozenset[str]) -> bool:
        """Whether *step* satisfies conjunction *node*; an event outside
        the stepper's events is an :class:`EngineError`."""
        unknown = step - self._event_set
        if unknown:
            raise EngineError(f"unknown event(s) in step: {sorted(unknown)}")
        return self.bdd.evaluate(node, dict.fromkeys(step, True))

    def _compile_formulas(self) -> None:
        """Compile every admitted state's formula not compiled yet."""
        from_expr = self.bdd.from_expr
        for table, nodes in zip(self.tables, self._formula_nodes):
            formulas = table.formulas
            while len(nodes) < len(formulas):
                nodes.append(from_expr(formulas[len(nodes)]))

    def steps_at(self, ids: Sequence[int],
                 include_empty: bool = False) -> tuple[frozenset[str], ...]:
        """Acceptable steps at the table state *ids*, ordered exactly as
        :meth:`ExecutionModel.acceptable_steps
        <repro.engine.execution_model.ExecutionModel.acceptable_steps>`
        orders them."""
        return self.steps_of(self.conjunction_at(ids), include_empty)

    def conjunction_at(self, ids: Sequence[int]) -> int:
        """The step conjunction at the table state *ids*."""
        return self.conjunction(self._nodes_at(ids))

    def _nodes_at(self, ids: Sequence[int]) -> tuple[int, ...]:
        """The compiled formula node of every constraint at *ids*."""
        try:
            return tuple([nodes[local] for nodes, local
                          in zip(self._formula_nodes, ids)])
        except IndexError:  # a state admitted since the last compile
            self._compile_formulas()
            return self._nodes_at(ids)

    def tokens_at(self, ids: Sequence[int]) -> tuple:
        """The :meth:`ExecutionModel.snapshot
        <repro.engine.execution_model.ExecutionModel.snapshot>` token of
        the table state *ids*: each constraint's stored runtime
        snapshot."""
        return tuple([table.tokens[local]
                      for table, local in zip(self.tables, ids)])

    def successor(self, ids: Sequence[int],
                  step: frozenset[str]) -> tuple[int, ...]:
        """The table state reached from *ids* by *step*.

        Only two kinds of slot are stepped: those whose alphabet *step*
        names (:meth:`_touching`), and those whose empty projection is
        not a proven self-loop at *ids* (:meth:`_moving_at`); every
        other slot keeps its local id, as stepping it on the empty
        projection would."""
        touches = self._touches_cache.get(step)
        if touches is None:
            touches = self._touching(step)
        successor = list(ids)
        for slot, table, projection in touches:
            local = ids[slot]
            target = table.delta[local].get(projection)
            successor[slot] = (table.step(local, projection)
                               if target is None else target)
        for slot in self._moving_at(ids):
            table = self.tables[slot]
            if step.isdisjoint(table.events):
                successor[slot] = table.step(ids[slot], _EMPTY)
        return tuple(successor)

    def _touching(self, step: frozenset[str]) -> tuple:
        """``(slot, table, projection)`` for each slot *step* names, in
        slot order, kept per step (steps recur across states) until the
        ``touches`` cap of distinct steps is held. Equal projections are
        kept as one object, which holds the memo's size down and lets
        every ``delta`` lookup reuse its cached hash."""
        if len(self._touches_cache) >= self.MEMOS["touches"].cap:
            self._touches_cache.clear()
            self._projections.clear()
        slots_of = self._slots_of
        tables = self.tables
        shared = self._projections
        touches = []
        for slot in sorted({slot for event in step
                            for slot in slots_of.get(event, ())}):
            projection = step & tables[slot].events
            touches.append((slot, tables[slot],
                            shared.setdefault(projection, projection)))
        touches = self._touches_cache[step] = tuple(touches)
        return touches

    def _moving_at(self, ids: Sequence[int]) -> list[int]:
        """The slots whose empty projection may move them at *ids*
        (:meth:`LocalTable.stutters`), found once per state: the edges of
        one state are stepped from the same *ids* object. A settled
        table (every admitted id stutters) is skipped unread."""
        moving = self._moving
        if moving[0] is not ids:
            moving = self._moving = (ids, [
                slot for slot, (table, local)
                in enumerate(zip(self.tables, ids))
                if table.unsettled and not table.stutters(local)])
        return moving[1]

    def decode_key(self, ids: Sequence[int]) -> tuple:
        """The explicit configuration key (tuple of ``state_key()``s) of
        the table state *ids*."""
        return tuple([table.keys[local]
                      for table, local in zip(self.tables, ids)])

    def accepting_at(self, ids: Sequence[int]) -> bool:
        return all(table.accepting[local]
                   for table, local in zip(self.tables, ids))


class CompiledStateView:
    """The one stepping view over local tables.

    Implements the working-model protocol — ``events``,
    ``configuration``/``snapshot``/``restore``, ``acceptable_steps``,
    ``max_step``, ``is_acceptable``, ``advance`` and ``is_accepting`` —
    on a :class:`TableStepper`: a model kernel (exploration, simulation)
    or a compiled transition system (its concretization and witnesses).
    The explorer's breadth-first search and the simulator's policies
    both run on it. Snapshots are tuples of local ids and no caller's
    runtime is ever touched; :meth:`model_snapshot` gives the token that
    brings a live model to the view's state. *ids* defaults to the
    compiled system's initial state and *name* to its name.
    """

    __slots__ = ("stepper", "name", "_current")

    def __init__(self, stepper: TableStepper,
                 ids: tuple[int, ...] | None = None,
                 name: str | None = None):
        self.stepper = stepper
        self.name = stepper.name if name is None else name
        self._current = stepper.initial_ids if ids is None else ids

    @property
    def events(self) -> Sequence[str]:
        return self.stepper.events

    def configuration(self) -> tuple:
        return self.stepper.decode_key(self._current)

    def snapshot(self) -> tuple[int, ...]:
        return self._current

    def restore(self, token: tuple[int, ...]) -> None:
        self._current = token

    def model_snapshot(self) -> tuple:
        """The live model's snapshot token of the current state (restore
        it into any model of the family)."""
        return self.stepper.tokens_at(self._current)

    def acceptable_steps(self,
                         include_empty: bool = False) -> list[frozenset[str]]:
        return list(self.stepper.steps_at(self._current, include_empty))

    def max_step(self) -> frozenset[str] | None:
        stepper = self.stepper
        return stepper.max_step_of(stepper.conjunction_at(self._current))

    def is_acceptable(self, step: frozenset[str]) -> bool:
        stepper = self.stepper
        return stepper.accepts(stepper.conjunction_at(self._current), step)

    def advance(self, step: frozenset[str], check: bool = True) -> None:
        """Take *step*. With *check* (the default) it is validated
        against the conjunction first, exactly as
        :meth:`ExecutionModel.advance
        <repro.engine.execution_model.ExecutionModel.advance>` does, so an
        unacceptable step never reaches a table's probe runtime."""
        if check and not self.is_acceptable(step):
            raise EngineError(
                f"step {sorted(step)} is not acceptable in the current "
                f"configuration of {self.name!r}")
        self._current = self.stepper.successor(self._current, step)

    def is_accepting(self) -> bool:
        return self.stepper.accepting_at(self._current)
