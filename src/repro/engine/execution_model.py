"""Execution models: the engine configuration for one specific model.

Paper §II-A: "The execution model is a symbolic representation of all
the acceptable schedules for a particular model." Concretely it is the
set of events (one boolean variable each) plus the instantiated
constraint runtimes. At every step the conjunction of the constraints'
boolean expressions characterizes the acceptable event sets; the
conjunction is compiled to a BDD for enumeration and counting.

Every execution model owns (and shares with its clones) a
:class:`SymbolicKernel` — one persistent BDD manager with a stable
variable order plus bounded caches — and the kernel holds the
per-constraint local transition tables (:mod:`repro.engine.tables`)
that explicit exploration and simulation step through.

The model's own queries (:meth:`ExecutionModel.acceptable_steps`,
``max_step``, ``is_acceptable``, ``count_acceptable_steps``) re-run the
live runtimes instead: they are the reference the tables are tested
against, and they serve lint's cross-check, CTL witness replay and any
caller stepping a model by hand. Each query compiles every constraint's
current ``step_formula()`` through the manager's per-expression
:meth:`~repro.boolalg.bdd.Bdd.from_expr` memo, the global conjunction
is memoized per compiled-node tuple, and step enumeration is memoized
per conjunction node — hash-consing makes the node id a canonical key
for the boolean function itself.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.boolalg.bdd import Bdd, Memo
from repro.boolalg.expr import And, BExpr
from repro.engine.tables import (
    _MISSING,
    CompiledStateView,
    LocalTable,
    TableStepper,
    _LruCache,
)
from repro.engine.symbolic import TransitionSystem, _constraint_order
from repro.errors import EngineError
from repro.moccml.semantics.runtime import ConstraintRuntime


class SymbolicKernel(TableStepper):
    """Persistent symbolic state for one execution model (and clones).

    Owns the BDD manager for the lifetime of the model family plus the
    caches that make stepping incremental:

    * compiled step formulas, memoized per structural expression by the
      manager itself (:meth:`~repro.boolalg.bdd.Bdd.from_expr`), so a
      live query whose constraints repeat a formula compiles nothing;
    * the global conjunction, a balanced tree over the constraint slots
      whose every subtree is memoized by its tuple of per-constraint
      nodes (:meth:`~repro.engine.tables.TableStepper.conjunction`);
    * enumerated step lists and maximal steps, keyed by the conjunction
      node id — hash-consing guarantees equal ids mean equal functions,
      so revisited configurations anywhere in an exploration hit here —
      and, below them, each BDD node's enumerated models and best
      branch, shared by every conjunction that reaches the node;
    * per distinct step, the constraint slots it names, so a successor
      steps only those (plus any slot that does not stutter there);
    * one lazily filled :class:`~repro.engine.tables.LocalTable` per
      constraint slot, which explicit exploration and simulation step
      through (:meth:`table_view`) instead of re-running the runtimes.

    All caches but the tables are rows of :attr:`MEMOS` or
    ``Bdd.MEMOS``, each bounded; the tables grow with what has been
    explored. The kernel is a pure accelerator and can be dropped at
    any time (:meth:`ExecutionModel.clear_caches`).
    """

    #: the stepping memos, plus two heavyweight LRUs: each system owns a
    #: manager, and each space is the property checker's explicit backend
    MEMOS = {**TableStepper.MEMOS,
             "transition_systems": Memo("_ts_cache", 4),
             "explored_spaces": Memo("_space_cache", 4)}

    def __init__(self, events: Iterable[str],
                 constraints: Sequence[ConstraintRuntime]):
        events = tuple(events)
        super().__init__(Bdd(order=events), events, [],
                         _constraint_order(constraints))
        self._ts_cache = _LruCache(self.MEMOS["transition_systems"].cap)
        self._space_cache = _LruCache(self.MEMOS["explored_spaces"].cap)

    def table_view(self, model: "ExecutionModel") -> CompiledStateView:
        """A table-driven working view of *model*'s current configuration
        — what explicit exploration and simulation step. The slot
        tables are made on first use and shared by every clone; *model*
        must belong to the family owning this kernel, and is only
        read."""
        if not self.tables:
            self._adopt([LocalTable(slot, constraint) for slot, constraint
                         in enumerate(model.constraints)])
        ids = tuple(table.locate(constraint) for table, constraint
                    in zip(self.tables, model.constraints))
        return CompiledStateView(self, ids, model.name)

    def transition_system(self, model: "ExecutionModel"):
        """The compiled symbolic transition system for *model*'s current
        configuration (see :mod:`repro.engine.symbolic`).

        Cached per configuration, so clones of one model family — which
        share this kernel — share the compiled relation across
        explorations and analyses. *model* must be a member of the
        family owning this kernel.
        """
        key = model.configuration()
        system = self._ts_cache.get(key, _MISSING)
        if system is _MISSING:
            system = TransitionSystem(model)
            self._ts_cache.put(key, system)
        return system

    def engine_telemetry(self) -> dict[str, object] | None:
        """Aggregate telemetry over the cached transition systems (see
        :meth:`TransitionSystem.telemetry
        <repro.engine.symbolic.TransitionSystem.telemetry>`) — peak BDD
        nodes and reorders maximized, image/preimage counts summed, the
        per-system records under ``"systems"``. ``None`` when nothing
        symbolic ran.

        Prefer :func:`repro.obs.engine_snapshot` in new code — it
        accepts a kernel, model, handle, system or reachable set and
        routes here when appropriate; this method stays as the
        kernel-level view it dispatches to."""
        records = [system.telemetry()
                   for system in self._ts_cache.values()]
        if not records:
            return None
        return {
            "bdd_nodes": max(r["bdd_nodes"] for r in records),
            "reorders": max(r["reorders"] for r in records),
            "images": sum(r["images"] for r in records),
            "preimages": sum(r["preimages"] for r in records),
            "systems": records,
        }

    def explored_space(self, model: "ExecutionModel",
                       max_states: int = 10_000,
                       max_depth: int | None = None,
                       include_empty: bool = False):
        """An explicitly explored state space for *model*'s current
        configuration, cached per (configuration, budgets) — repeated
        property checks of one model, and an explicit explore spec
        followed by checks, share one exploration. Treat the returned
        space as immutable; *model* must belong to the family owning
        this kernel.
        """
        from repro.engine.explorer import explore
        key = (model.configuration(), max_states, max_depth,
               include_empty)
        space = self._space_cache.get(key, _MISSING)
        if space is _MISSING:
            space = explore(model, max_states=max_states,
                            max_depth=max_depth,
                            include_empty=include_empty)
            self._space_cache.put(key, space)
        return space

    def cache_sizes(self) -> dict[str, int]:
        """Entries per memo, plus the tables and the manager's nodes."""
        return {**super().cache_sizes(),
                "max_model": self.bdd.cache_sizes()["max_model"],
                "local_tables": len(self.tables),
                "local_states": sum(table.n_states for table in self.tables),
                "bdd_nodes": self.bdd.node_count()}

    def clear(self) -> None:
        """Drop every cached result and local table (the manager itself
        survives)."""
        for row in self.MEMOS.values():
            getattr(self, row.attr).clear()
        self._adopt([])
        self.bdd.clear_operation_caches()


class ExecutionModel:
    """Events + constraint instances, advanced step by step."""

    def __init__(self, events: Iterable[str],
                 constraints: Iterable[ConstraintRuntime] = (),
                 name: str = "execution-model"):
        self.name = name
        self.events: list[str] = list(dict.fromkeys(events))
        self.constraints: list[ConstraintRuntime] = list(constraints)
        self._kernel: SymbolicKernel | None = None
        self._check_coverage()

    def _check_coverage(self) -> None:
        known = set(self.events)
        for constraint in self.constraints:
            missing = constraint.constrained_events - known
            if missing:
                raise EngineError(
                    f"constraint {constraint.label!r} references event(s) "
                    f"{sorted(missing)} not in the execution model")

    @property
    def kernel(self) -> SymbolicKernel:
        """The model's persistent symbolic kernel (created lazily)."""
        if self._kernel is None:
            self._kernel = SymbolicKernel(self.events, self.constraints)
        return self._kernel

    def clear_caches(self) -> None:
        """Detach and drop this model's symbolic kernel.

        A fresh kernel is created lazily on the next symbolic query.
        Clones sharing the old kernel are unaffected.
        """
        self._kernel = None

    def add_constraint(self, constraint: ConstraintRuntime) -> ConstraintRuntime:
        """Attach one more constraint (its events must already exist)."""
        missing = constraint.constrained_events - set(self.events)
        if missing:
            raise EngineError(
                f"constraint {constraint.label!r} references unknown "
                f"event(s) {sorted(missing)}")
        self.constraints.append(constraint)
        # slot-keyed caches assume a fixed constraint list: detach (a
        # clone sharing the old kernel keeps using it unharmed)
        self._kernel = None
        return constraint

    def add_event(self, event: str) -> str:
        """Register an additional (free until constrained) event."""
        if event not in self.events:
            self.events.append(event)
            self._kernel = None  # enumeration set changed
        return event

    # -- step semantics ------------------------------------------------------

    def step_formula(self) -> BExpr:
        """The conjunction of every constraint's current formula."""
        return And(*(constraint.step_formula()
                     for constraint in self.constraints))

    def _step_node(self) -> int:
        """The BDD node of the current global conjunction, compiled from
        the live runtimes' formulas."""
        kernel = self.kernel
        from_expr = kernel.bdd.from_expr
        return kernel.conjunction(tuple([
            from_expr(constraint.step_formula())
            for constraint in self.constraints]))

    def acceptable_steps(self, include_empty: bool = False) -> list[frozenset[str]]:
        """Enumerate the acceptable steps at the current configuration.

        Returns a deterministically ordered list of event sets; the empty
        step (nothing occurs) is omitted unless *include_empty*.
        """
        return list(self.kernel.steps_of(self._step_node(), include_empty))

    def count_acceptable_steps(self, include_empty: bool = True) -> int:
        """Number of acceptable steps without enumerating them."""
        kernel = self.kernel
        node = self._step_node()
        count = kernel.bdd.sat_count(node, self.events)
        if not include_empty:
            empty = {name: False for name in self.events}
            if kernel.bdd.evaluate(node, empty):
                count -= 1
        return count

    def max_step(self) -> frozenset[str] | None:
        """A maximal acceptable step, computed symbolically.

        Returns None when no *non-empty* step is acceptable. Unlike
        :meth:`acceptable_steps`, this never enumerates models — cost is
        linear in the BDD size — so the ASAP policy scales to wide
        models where the candidate set is exponential.
        """
        return self.kernel.max_step_of(self._step_node())

    def is_acceptable(self, step: frozenset[str]) -> bool:
        """Whether *step* satisfies the current conjunction."""
        return self.kernel.accepts(self._step_node(), step)

    def advance(self, step: frozenset[str], check: bool = True) -> None:
        """Commit *step*: every constraint updates its internal state.

        With *check* (the default) the step is validated against the
        global conjunction first; drivers that enumerate steps from the
        formula itself (the explorer) skip the redundant validation.
        """
        if check and not self.is_acceptable(step):
            raise EngineError(
                f"step {sorted(step)} is not acceptable in the current "
                f"configuration of {self.name!r}")
        for constraint in self.constraints:
            constraint.advance(step)

    # -- exploration support -----------------------------------------------------

    def configuration(self) -> Hashable:
        """Hashable global configuration (tuple of constraint states)."""
        return tuple(constraint.state_key()
                     for constraint in self.constraints)

    def snapshot(self) -> tuple:
        """A lightweight token capturing every constraint's state.

        Cheaper than :meth:`clone` (plain value tuples, no object
        allocation per constraint); rewind with :meth:`restore`. Tokens
        stay valid across any number of restores.
        """
        return tuple(constraint.snapshot()
                     for constraint in self.constraints)

    def restore(self, token: tuple) -> None:
        """Rewind every constraint to a state captured by :meth:`snapshot`.

        The token must come from a model with the same constraint list
        (self, a clone, or the clone's original).
        """
        if len(token) != len(self.constraints):
            raise EngineError(
                f"snapshot arity mismatch: token has {len(token)} "
                f"entries, model has {len(self.constraints)} constraints")
        for constraint, part in zip(self.constraints, token):
            constraint.restore(part)

    def clone(self) -> "ExecutionModel":
        """Deep copy: cloned constraints, shared immutable event list.

        The clone *shares* the symbolic kernel: its constraint list is
        structurally identical, so compiled formulas, conjunctions, step
        enumerations and local tables carry over (the manager is
        append-only, making the sharing safe). Mutating the structure
        afterwards (:meth:`add_constraint` / :meth:`add_event`) detaches
        only the mutated model.
        """
        copy = ExecutionModel(self.events, [], name=self.name)
        copy.constraints = [constraint.clone()
                            for constraint in self.constraints]
        copy._kernel = self.kernel  # materialize so all clones share one
        return copy

    def is_accepting(self) -> bool:
        """Whether every constraint is in an accepting (final) state."""
        return all(constraint.is_accepting()
                   for constraint in self.constraints)

    def __repr__(self):
        return (f"ExecutionModel({self.name!r}, {len(self.events)} events, "
                f"{len(self.constraints)} constraints)")
