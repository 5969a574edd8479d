"""Hash-consed reduced ordered binary decision diagrams.

The engine represents each step's acceptable-event formula as a BDD:
model enumeration and model counting are then linear in the number of
solutions/nodes, which is what makes exhaustive exploration of the
scheduling state space practical (paper §II-C: the execution model is "a
symbolic representation of all the acceptable schedules").

A :class:`Bdd` instance is a manager owning the unique-node table and a
variable order. Functions are plain integers (node references), with
``bdd.zero`` and ``bdd.one`` as terminals.

Managers are designed to be *persistent*: the node table is append-only
and node indices stay valid for the manager's lifetime, so one manager
can serve every step of a long-running execution model. Because nodes
are hash-consed, a node index is a canonical identifier of its boolean
function — two structurally different expressions compiling to the same
function yield the *same* integer, which higher layers exploit as a
cache key (see :mod:`repro.engine.execution_model`).

The variable order is *dynamic*: first declaration places a variable at
the next free level, but :meth:`Bdd.reorder` (Rudell-style sifting over
an adjacent-level swap primitive) may move levels around afterwards.
The manager never reorders on its own: it sifts when its owner calls
:meth:`Bdd.reorder`, against the roots the owner names, and the owner
decides when (the symbolic engine's policy lives in
``TransitionSystem._maybe_reorder``). Reordering rewrites the affected
unique-table rows in place, so node ids reachable from the roots — and
the functions they denote — survive every reorder; only level-keyed
operation caches (notably the cross-call ``exists`` memo) must be, and
are, invalidated. Callers must not reorder while a lazy enumeration
(:meth:`Bdd.iter_models`) is being consumed.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro import obs
from repro.boolalg.expr import (
    BExpr,
    Var,
    _And,
    _Const,
    _Not,
    _Or,
)


@dataclass(slots=True)
class Memo:
    """A row of a memo owner's ``MEMOS`` table, keyed by the name
    ``cache_sizes()`` reports: the memo's attribute, the entry count
    past which it is trimmed (read by each trim, and by an LRU when it
    is made) and whether a compiled system's reorder roots hold its
    node ids. Lower a cap by patching the row in place."""

    attr: str
    cap: int
    roots: bool = False


class _PerSet(dict):
    """A memo of inner memos, one per level or variable set; its length
    counts their entries."""

    __slots__ = ()

    def __len__(self) -> int:
        return sum(map(len, self.values()))


class _MaxModelMemo(dict):
    """One variable set's :meth:`Bdd.max_true_model` memo, ``{node:
    (score, value, child)}``, with its *names* and levels' *position*."""

    __slots__ = ("names", "position")


class Bdd:
    """A BDD manager with a dynamic (siftable) variable order."""

    #: the operation memos: each is dropped whole past its cap (an inner
    #: memo as soon as one call grows it past), but ``expr`` is an LRU.
    #: The node table is no memo: node ids must stay valid.
    MEMOS = {"ite": Memo("_ite_cache", 1_000_000),
             "expr": Memo("_expr_cache", 50_000),
             "exists": Memo("_exists_cache", 500_000),
             "and_exists": Memo("_andex_cache", 500_000),
             "max_model": Memo("_max_model_cache", 500_000),
             "not": Memo("_not_cache", 1_000_000)}

    def __init__(self, order: Iterable[str] | None = None):
        #: node storage: index -> (level, low, high); levels 0.. for
        #: variables, terminals use a level beyond every variable.
        self._nodes: list[tuple[int, int, int]] = []
        #: reorder-time reference counts, parallel to ``_nodes`` —
        #: rebuilt by a sweep at every :meth:`reorder` entry (see
        #: :meth:`_init_reorder_refs`) and maintained incrementally by
        #: the swap primitive; meaningless between reorders.
        self._refs: list[int] = []
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        #: negation memo, both directions: ``_not_cache[f] == ¬f`` and
        #: ``_not_cache[¬f] == f`` — makes repeated complements O(1) and
        #: feeds the ite complement-argument normalization.
        self._not_cache: dict[int, int] = {}
        #: cross-call existential-quantification memo: one inner
        #: ``{node: result}`` memo per quantified level set — the
        #: nesting keeps the hot-path key a bare int. Level-keyed, so
        #: invalidated on reorder, as are the next two.
        self._exists_cache: _PerSet = _PerSet()
        #: fused relational-product memo for :meth:`and_exists`: one
        #: inner memo per level set, keyed ``(f << 32) | g`` with the
        #: commutative operands id-ordered.
        self._andex_cache: _PerSet = _PerSet()
        #: cross-call :meth:`max_true_model` memo, per variable set
        self._max_model_cache: _PerSet = _PerSet()
        #: from_expr memo — an LRU: every clone/discard cycle of a
        #: stateful model contributes fresh formulas, which must be
        #: evicted once unused rather than pinned forever.
        self._expr_cache: OrderedDict[BExpr, int] = OrderedDict()
        #: (memo, its row) in ``MEMOS`` order, bound once for the trim
        self._memos = tuple((getattr(self, row.attr), row)
                            for row in self.MEMOS.values())
        self._order: list[str] = []
        self._levels: dict[str, int] = {}
        #: node ids per level (dead ids included — the table is
        #: append-only), so adjacent-level swaps touch only their rows
        self._level_nodes: dict[int, set[int]] = {}
        #: reorder-time live node count — the sifting objective
        self._live = 0
        #: completed :meth:`reorder` runs (telemetry; external caches
        #: keyed on levels can use it as an epoch)
        self.reorder_count = 0
        self._reordering = False
        # operation-cache hit/miss counters (plain attributes: ite is
        # the hottest function in the engine)
        self._ite_hits = 0
        self._ite_misses = 0
        self._exists_hits = 0
        self._exists_misses = 0
        self._andex_hits = 0
        self._andex_misses = 0
        self._not_hits = 0
        self._not_misses = 0
        self.zero = self._make_terminal()
        self.one = self._make_terminal()
        for name in order or []:
            self.declare(name)

    #: one variable's sift is cut short once the live node count grows
    #: past this factor of the count that sift started from.
    _SIFT_GROWTH_LIMIT = 1.2

    # -- variables ------------------------------------------------------------

    def declare(self, name: str) -> int:
        """Ensure *name* is in the variable order; return its level."""
        if name not in self._levels:
            self._levels[name] = len(self._order)
            self._order.append(name)
        return self._levels[name]

    @property
    def order(self) -> list[str]:
        return list(self._order)

    def var(self, name: str) -> int:
        """The function of the single variable *name*."""
        level = self.declare(name)
        return self._node(level, self.zero, self.one)

    def nvar(self, name: str) -> int:
        """The function ¬name."""
        level = self.declare(name)
        return self._node(level, self.one, self.zero)

    # -- node plumbing -----------------------------------------------------------

    def _make_terminal(self) -> int:
        index = len(self._nodes)
        self._nodes.append((-1, -1, -1))
        self._refs.append(0)
        return index

    def _level(self, node: int) -> int:
        if node in (self.zero, self.one):
            return len(self._order) + 1_000_000  # beyond every variable
        return self._nodes[node][0]

    def _node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        index = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = index
        if self._reordering:
            # level buckets only exist during a reorder (the swap
            # primitive rewrites whole levels); between reorders the
            # hot path skips all bookkeeping
            self._refs.append(0)
            bucket = self._level_nodes.get(level)
            if bucket is None:
                bucket = self._level_nodes[level] = set()
            bucket.add(index)
        return index

    def _ref(self, child: int) -> None:
        """Reorder-time refcounting: add one live edge into *child*,
        resurrecting (and cascading into) its subgraph if it was dead."""
        if child <= self.one:
            return
        refs = self._refs
        refs[child] += 1
        if refs[child] == 1:
            self._live += 1
            _level, low, high = self._nodes[child]
            self._ref(low)
            self._ref(high)

    def _deref(self, child: int) -> None:
        """Drop one live edge into *child*; a row whose last edge goes
        is evicted on the spot — its unique-table key and bucket entry
        are removed, so it can never be returned by :meth:`_node` again
        (dead rows are not rewritten by swaps, so resurrecting one
        after its level moved would yield a stale function)."""
        if child <= self.one:
            return
        refs = self._refs
        refs[child] -= 1
        if refs[child] == 0:
            self._live -= 1
            row = self._nodes[child]
            if self._unique.get(row) == child:
                self._unique.pop(row)
            bucket = self._level_nodes.get(row[0])
            if bucket is not None:
                bucket.discard(child)
            self._deref(row[1])
            self._deref(row[2])

    def _init_level_buckets(self) -> None:
        """Build the per-level buckets of *live* node ids the swap
        primitive rewrites — computed fresh at each reorder entry (one
        sweep over the table, after :meth:`_init_reorder_refs`) rather
        than maintained on the allocation hot path. Rows unreachable
        from the reorder roots are evicted here: their unique-table
        keys are dropped so they can never be resurrected with a stale
        level assignment, and the swaps never have to rewrite them —
        which is what makes sifting scale with the live graph instead
        of with everything the table ever allocated."""
        buckets: dict[int, set[int]] = {}
        refs = self._refs
        unique = self._unique
        for index in range(self.one + 1, len(self._nodes)):
            row = self._nodes[index]
            if refs[index] == 0:
                if unique.get(row) == index:
                    unique.pop(row)
                continue
            bucket = buckets.get(row[0])
            if bucket is None:
                bucket = buckets[row[0]] = set()
            bucket.add(index)
        self._level_nodes = buckets

    def _init_reorder_refs(self, roots: Iterable[int]) -> None:
        """Snapshot the sifting objective: refs[x] = live edges into x
        plus one pseudo-ref per root; ``_live`` = rows reachable from
        *roots*."""
        self._refs = [0] * len(self._nodes)
        self._live = 0
        for root in roots:
            self._ref(root)

    def node_count(self) -> int:
        """Total nodes allocated by this manager (including terminals)."""
        return len(self._nodes)

    def size(self, *nodes: int) -> int:
        """Distinct non-terminal nodes reachable from any of *nodes*.

        O(reachable): over an owner's live roots it is the cheap probe
        that tells genuine structure growth from allocation churn (the
        table is append-only, so its length counts every transient
        intermediate ever built)."""
        rows = self._nodes
        one = self.one
        seen: set[int] = set()
        stack = [node for node in nodes if node > one]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            _level, low, high = rows[current]
            if low > one:
                stack.append(low)
            if high > one:
                stack.append(high)
        return len(seen)

    def cache_sizes(self) -> dict[str, int]:
        """Entries per operation memo, by its ``MEMOS`` name."""
        return {name: len(getattr(self, row.attr))
                for name, row in self.MEMOS.items()}

    def cache_stats(self) -> dict[str, dict[str, float]]:
        """Hit/miss counters and hit rates per operation cache."""
        def bucket(hits: int, misses: int) -> dict[str, float]:
            total = hits + misses
            return {"hits": hits, "misses": misses,
                    "hit_rate": round(hits / total, 6) if total else 0.0}
        return {"ite": bucket(self._ite_hits, self._ite_misses),
                "exists": bucket(self._exists_hits, self._exists_misses),
                "and_exists": bucket(self._andex_hits, self._andex_misses),
                "not": bucket(self._not_hits, self._not_misses)}

    def clear_operation_caches(self) -> None:
        """Drop every operation memo.

        Node ids remain valid (the unique table is untouched); only the
        memoized operation results are released. Safe at any time — the
        caches are a pure accelerator — and mandatory after a reorder,
        where the level-keyed exists entries go stale.
        """
        for memo, _row in self._memos:
            memo.clear()

    def _trim_caches(self) -> None:
        """Drop each memo grown past its cap."""
        for memo, row in self._memos:
            if len(memo) > row.cap:
                memo.clear()

    # -- core operations -----------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: f ? g : h — the universal BDD combinator.

        Calls are normalized to a canonical triple before the memo
        lookup (standard ite normalization): equal/complement arguments
        collapse (``ite(f,f,h) = ite(f,1,h)``, ``ite(f,¬f,h) =
        ite(f,0,h)``), the commutative AND/OR shapes order their
        operands by node id (ids are canonical function identifiers),
        and a test function with a known complement uses the smaller id
        with swapped branches — so the equivalent ways higher layers
        spell one operation share a single cache row.
        """
        one = self.one
        zero = self.zero
        if f == one:
            return g
        if f == zero:
            return h
        if g == h:
            return g
        if f == g:
            g = one
        elif f == h:
            h = zero
        if g == h:  # the collapses can re-merge the branches
            return g
        if g == one and h == zero:
            return f
        not_f = self._not_cache.get(f)
        if not_f is not None:
            if not_f == g:
                g = zero
            if not_f == h:
                h = one
            if g == h:  # the collapses can re-merge the branches
                return g
            if g == zero and h == one:  # NOT(f), complement known
                self._not_hits += 1
                return not_f
            if not_f < f:  # canonical polarity for the test function
                f, g, h = not_f, h, g
        if h == zero:  # AND(f, g): commutative
            if g < f:
                f, g = g, f
        elif g == one:  # OR(f, h): commutative
            if h < f:
                f, h = h, f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            self._ite_hits += 1
            return cached
        self._ite_misses += 1
        nodes = self._nodes
        # top level and cofactors, inlined: f is never terminal here,
        # g/h may be (their cofactors are then themselves)
        f_level, f_low, f_high = nodes[f]
        level = f_level
        if g > one:
            g_level = nodes[g][0]
            if g_level < level:
                level = g_level
        if h > one:
            h_level = nodes[h][0]
            if h_level < level:
                level = h_level
        if f_level != level:
            f_low = f_high = f
        if g <= one or nodes[g][0] != level:
            g_low = g_high = g
        else:
            _lvl, g_low, g_high = nodes[g]
        if h <= one or nodes[h][0] != level:
            h_low = h_high = h
        else:
            _lvl, h_low, h_high = nodes[h]
        low = self.ite(f_low, g_low, h_low)
        high = self.ite(f_high, g_high, h_high)
        result = low if low == high else self._node(level, low, high)
        self._ite_cache[key] = result
        return result

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction ``f ∧ g``: its own recursion on cofactors, without
        :meth:`ite`'s three-operand normalization.

        Terminal and equal operands return at once, a known complement
        (:attr:`_not_cache`) gives ``zero``, and the operands are ordered
        by id, so the result is memoized in the ite cache under the key
        ``ite(f, g, 0)`` uses when neither operand's complement is known.
        Nodes are allocated in the same order as ``ite(f, g, 0)`` would
        allocate them: both recurse low cofactor first, and a memo hit
        or a shortcut only ever returns a node that exists already. So
        node ids and :meth:`node_count` do not depend on which of the two
        computed a conjunction.
        """
        zero = self.zero
        if f == zero or g == zero:
            return zero
        one = self.one
        if f == one or f == g:
            return g
        if g == one:
            return f
        if g < f:
            f, g = g, f
        if self._not_cache.get(f) == g:
            return zero
        key = (f, g, zero)
        cached = self._ite_cache.get(key)
        if cached is not None:
            self._ite_hits += 1
            return cached
        self._ite_misses += 1
        f_level, f_low, f_high = self._nodes[f]
        g_level, g_low, g_high = self._nodes[g]
        if f_level < g_level:
            level = f_level
            g_low = g_high = g
        else:
            level = g_level
            if g_level < f_level:
                f_low = f_high = f
        low = self.apply_and(f_low, g_low)
        high = self.apply_and(f_high, g_high)
        result = low if low == high else self._node(level, low, high)
        self._ite_cache[key] = result
        return result

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, self.one, g)

    def apply_not(self, f: int) -> int:
        cached = self._not_cache.get(f)
        if cached is not None:
            self._not_hits += 1
            return cached
        self._not_misses += 1
        result = self.ite(f, self.zero, self.one)
        self._not_cache[f] = result
        self._not_cache[result] = f
        return result

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def restrict(self, node: int, assignment: Mapping[str, bool]) -> int:
        """Fix variables to constants."""
        fixed = {self._levels[name]: value
                 for name, value in assignment.items() if name in self._levels}
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            if current in (self.zero, self.one):
                return current
            if current in cache:
                return cache[current]
            level, low, high = self._nodes[current]
            if level in fixed:
                result = walk(high if fixed[level] else low)
            else:
                result = self._node(level, walk(low), walk(high))
            cache[current] = result
            return result

        return walk(node)

    def exists(self, node: int, names: Iterable[str]) -> int:
        """Existential quantification over *names*.

        Results are memoized *across calls* in a bounded cache keyed by
        ``(node, frozen level-set)``: preimage-heavy fixpoints (AF/AU)
        re-quantify largely overlapping intermediate sets every
        iteration, and with a persistent manager the shared subgraphs
        hit here instead of being re-walked. The cache is level-keyed,
        so it is invalidated on reorder.
        """
        levels = frozenset(self._levels[name] for name in names
                           if name in self._levels)
        if not levels or node in (self.zero, self.one):
            return node
        result = self._exists_levels(node, levels)
        cache = self._exists_cache.get(levels)
        if cache is not None and len(cache) > self.MEMOS["exists"].cap:
            cache.clear()
        return result

    def _exists_levels(self, node: int, levels: frozenset) -> int:
        """:meth:`exists` body over a pre-resolved level set."""
        cache = self._exists_cache.get(levels)
        if cache is None:
            cache = self._exists_cache[levels] = {}
        nodes = self._nodes
        one = self.one

        def walk(current: int) -> int:
            if current <= one:  # terminals are ids 0 and 1
                return current
            cached = cache.get(current)
            if cached is not None:
                self._exists_hits += 1
                return cached
            self._exists_misses += 1
            level, low, high = nodes[current]
            if level in levels:
                low_walked = walk(low)
                # short-circuit: ∃x. f is already everything
                result = (one if low_walked == one
                          else self.apply_or(low_walked, walk(high)))
            else:
                low_walked = walk(low)
                high_walked = walk(high)
                result = (low_walked if low_walked == high_walked
                          else self._node(level, low_walked, high_walked))
            cache[current] = result
            return result

        return walk(node)

    def and_exists(self, f: int, g: int, names: Iterable[str]) -> int:
        """Fused relational product: ``∃names. (f ∧ g)`` in one pass.

        The workhorse of symbolic image/preimage (CUDD's
        ``bddAndAbstract``): the conjunction ``f ∧ g`` is never
        materialized — at a quantified level the branch results are
        OR-ed on the spot, and the walk short-circuits to ``one`` as
        soon as the low branch alone proves the quantified product
        full. Below the deepest quantified level the computation
        degrades to a plain conjunction and is delegated to
        :meth:`ite` (sharing its memo); a walk that reaches ``one`` on
        one side delegates to the :meth:`exists` walk on the other
        (sharing that memo). Results are memoized across calls keyed
        ``(f, g, frozen level-set)`` with the commutative operands
        id-ordered; level-keyed, so invalidated on reorder.
        """
        levels = frozenset(self._levels[name] for name in names
                           if name in self._levels)
        if not levels:
            return self.apply_and(f, g)
        max_quantified = max(levels)
        cache = self._andex_cache.get(levels)
        if cache is None:
            cache = self._andex_cache[levels] = {}
        nodes = self._nodes
        zero = self.zero
        one = self.one

        def walk(f: int, g: int) -> int:
            if f == zero or g == zero:
                return zero
            if f == one:
                return one if g == one else self._exists_levels(g, levels)
            if g == one:
                return self._exists_levels(f, levels)
            if g < f:  # conjunction is commutative: canonical operand order
                f, g = g, f
            f_level, f_low, f_high = nodes[f]
            g_level, g_low, g_high = nodes[g]
            level = f_level if f_level < g_level else g_level
            if level > max_quantified:
                # no quantified variable can occur below this level
                return self.ite(f, g, zero)
            key = (f << 32) | g
            cached = cache.get(key)
            if cached is not None:
                self._andex_hits += 1
                return cached
            self._andex_misses += 1
            if f_level != level:
                f_low = f_high = f
            if g_level != level:
                g_low = g_high = g
            if level in levels:
                low_walked = walk(f_low, g_low)
                result = (one if low_walked == one
                          else self.apply_or(low_walked,
                                             walk(f_high, g_high)))
            else:
                low_walked = walk(f_low, g_low)
                high_walked = walk(f_high, g_high)
                result = (low_walked if low_walked == high_walked
                          else self._node(level, low_walked, high_walked))
            cache[key] = result
            return result

        result = walk(f, g)
        if len(cache) > self.MEMOS["and_exists"].cap:
            cache.clear()
        return result

    def rename(self, node: int, mapping: Mapping[str, str]) -> int:
        """Substitute variables: ``mapping[old] = new``.

        When the substitution preserves the relative variable order over
        the function's support — reading the support of *node* top to
        bottom, the mapped levels strictly increase and do not collide
        with the levels of unmapped support variables — renaming is a
        single linear walk. That used to be the only supported case
        (image computation keeps each primed state bit adjacent to its
        unprimed twin), but dynamic reordering can interleave current
        and primed bits arbitrarily, so a non-monotone request now
        falls back to the general simultaneous :meth:`substitute`
        instead of raising.
        """
        level_map: dict[int, int] = {}
        for old, new in mapping.items():
            if old not in self._levels:
                continue  # variable never declared: cannot be in any support
            level_map[self._levels[old]] = self.declare(new)
        support = sorted(self._support_levels(node))
        mapped = [level_map.get(level, level) for level in support]
        if any(b <= a for a, b in zip(mapped, mapped[1:])):
            return self.substitute(node, mapping)
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            if current in (self.zero, self.one):
                return current
            cached = cache.get(current)
            if cached is not None:
                return cached
            level, low, high = self._nodes[current]
            result = self._node(level_map.get(level, level),
                                walk(low), walk(high))
            cache[current] = result
            return result

        return walk(node)

    def substitute(self, node: int, mapping: Mapping[str, str]) -> int:
        """Simultaneous variable substitution: ``mapping[old] = new``.

        Unlike :meth:`rename`, the mapping may be arbitrary — in
        particular it may *swap* variables (the current↔primed exchange
        of relational image/preimage computation, where the target
        variables are themselves in the function's support). Implemented
        as a vector compose: every variable is replaced by the function
        of its image variable in one bottom-up pass, so the substitution
        is simultaneous by construction. Costs ITE work per node instead
        of :meth:`rename`'s single linear walk — prefer :meth:`rename`
        when the mapping is order-monotone over the support.
        """
        level_map: dict[int, int] = {}
        for old, new in mapping.items():
            if old not in self._levels:
                continue  # variable never declared: cannot be in any support
            level_map[self._levels[old]] = self.declare(new)
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            if current in (self.zero, self.one):
                return current
            cached = cache.get(current)
            if cached is not None:
                return cached
            level, low, high = self._nodes[current]
            low_walked, high_walked = walk(low), walk(high)
            target = level_map.get(level, level)
            guard = self._node(target, self.zero, self.one)
            result = self.ite(guard, high_walked, low_walked)
            cache[current] = result
            return result

        return walk(node)

    # -- dynamic variable reordering ----------------------------------------------

    def _swap_adjacent(self, upper: int) -> None:
        """Swap the variables at levels *upper* and *upper*+1 in place.

        The *live* unique-table rows at the two levels are rewritten so
        that every live node id keeps denoting the same boolean
        function under the exchanged order — the standard level-swap
        primitive:

        * a level-``upper`` node independent of the lower variable
          keeps its structure and simply moves down one level;
        * a dependent node is rebuilt as ``v ? (u ? f11 : f01)
          : (u ? f10 : f00)`` with fresh (or reused) inner ``u`` nodes;
        * every old lower-level node keeps its structure and moves up.

        Only rows reachable from the reorder roots are touched: the
        level buckets are live-only (dead rows were evicted at reorder
        entry, dying rows are evicted by :meth:`_deref`), which is what
        keeps a swap proportional to the live population of two levels
        rather than to every row the append-only table ever allocated.

        No two rewritten rows can collide: a dependent node's function
        depends on ``u`` while a moved-up node's does not, and distinct
        functions keep distinct ``(level, low, high)`` keys.
        """
        lower = upper + 1
        nodes = self._nodes
        unique = self._unique
        upper_ids = self._level_nodes.get(upper, set())
        lower_ids = self._level_nodes.get(lower, set())
        for idx in upper_ids:
            unique.pop(nodes[idx], None)
        for idx in lower_ids:
            unique.pop(nodes[idx], None)
        dependent: list[int] = []
        result_upper: set[int] = set()
        result_lower: set[int] = set()
        for idx in upper_ids:
            _lvl, low, high = nodes[idx]
            if low in lower_ids or high in lower_ids:
                dependent.append(idx)
            else:  # independent of the lower variable: move down as-is
                nodes[idx] = (lower, low, high)
                unique[(lower, low, high)] = idx
                result_lower.add(idx)
        for idx in lower_ids:  # old lower rows move up, structure intact
            _lvl, low, high = nodes[idx]
            nodes[idx] = (upper, low, high)
            unique[(upper, low, high)] = idx
            result_upper.add(idx)
        # install the new buckets *before* rebuilding dependents, so the
        # inner _node() calls land in (and can reuse) the right rows
        self._level_nodes[upper] = result_upper
        self._level_nodes[lower] = result_lower
        for idx in dependent:
            if self._refs[idx] == 0:
                continue  # died during this swap: already evicted
            _lvl, f0, f1 = nodes[idx]
            if f0 in lower_ids:
                _l0, f00, f01 = nodes[f0]
            else:
                f00 = f01 = f0
            if f1 in lower_ids:
                _l1, f10, f11 = nodes[f1]
            else:
                f10 = f11 = f1
            low = self._node(lower, f00, f10)
            high = self._node(lower, f01, f11)
            self._ref(low)
            self._ref(high)
            self._deref(f0)
            self._deref(f1)
            nodes[idx] = (upper, low, high)
            unique[(upper, low, high)] = idx
            result_upper.add(idx)
        u_name = self._order[upper]
        v_name = self._order[lower]
        self._order[upper], self._order[lower] = v_name, u_name
        self._levels[u_name] = lower
        self._levels[v_name] = upper

    def _sift_var(self, name: str) -> None:
        """Move one variable through every level, park it at the
        position minimizing the live node count (Rudell sifting)."""
        n = len(self._order)
        pos = self._levels[name]
        limit = max(64, int(self._live * self._SIFT_GROWTH_LIMIT))
        best_size = self._live
        best_pos = pos

        def down() -> None:
            nonlocal pos, best_size, best_pos
            while pos < n - 1 and self._live <= limit:
                self._swap_adjacent(pos)
                pos += 1
                if self._live < best_size:
                    best_size, best_pos = self._live, pos

        def up() -> None:
            nonlocal pos, best_size, best_pos
            while pos > 0 and self._live <= limit:
                self._swap_adjacent(pos - 1)
                pos -= 1
                if self._live < best_size:
                    best_size, best_pos = self._live, pos

        if n - 1 - pos <= pos:  # sift toward the closer end first
            down()
            up()
        else:
            up()
            down()
        while pos < best_pos:
            self._swap_adjacent(pos)
            pos += 1
        while pos > best_pos:
            self._swap_adjacent(pos - 1)
            pos -= 1

    def reorder(self, roots: Iterable[int], budget: int | None = None) -> int:
        """Dynamic variable reordering by Rudell-style sifting.

        Each variable (most-populated levels first) is sifted through
        every position via adjacent-level swaps and parked where the
        live node count is smallest; one variable's sift is aborted
        early when the live count grows past
        :attr:`_SIFT_GROWTH_LIMIT` times the count it started from.
        Passes repeat until the improvement fades (converge) or
        *budget* variable-sifts have been spent. Node ids reachable
        from *roots* survive with their function intact — only the
        level assignment changes — and the operation caches are
        invalidated (the exists caches are keyed on levels; the others
        are dropped wholesale for safety). Returns the live-node-count
        reduction.

        The live-only contract: sifting rewrites (and its cost scales
        with) only the rows reachable from *roots*. Everything else is
        evicted from the unique table up front — ids not covered by
        *roots* are **invalidated** by the reorder and must not be used
        again, so the caller names every id it still holds.

        The manager never calls this itself: whether a reorder is due,
        and which ids are live, is the owner's decision (the symbolic
        engine's is ``TransitionSystem._maybe_reorder``).
        """
        if len(self._order) < 2:
            return 0
        self._reordering = True
        started = time.perf_counter()
        trace = obs.span("bdd.reorder", nodes_before=len(self._nodes))
        trace.__enter__()
        try:
            # refs first: the bucket sweep keeps live rows only and
            # evicts the rest from the unique table
            self._init_reorder_refs(roots)
            self._init_level_buckets()
            before = self._live
            sifted = 0
            exhausted = False
            while not exhausted:
                round_start = self._live
                by_population = sorted(
                    self._order,
                    key=lambda nm: -len(
                        self._level_nodes.get(self._levels[nm], ())))
                for name in by_population:
                    if budget is not None and sifted >= budget:
                        exhausted = True
                        break
                    self._sift_var(name)
                    sifted += 1
                improvement = round_start - self._live
                if improvement <= max(16, round_start // 50):
                    break  # converged: another pass would not pay
            self.reorder_count += 1
            self.clear_operation_caches()
            obs.count("bdd.reorders")
            obs.observe("bdd.reorder_s", time.perf_counter() - started)
            trace.set(sifted=sifted, live_after=self._live,
                      reduction=before - self._live)
            return before - self._live
        finally:
            self._reordering = False
            self._level_nodes = {}  # bucket upkeep stops with the reorder
            trace.__exit__(None, None, None)

    # -- building from expressions -----------------------------------------------

    def from_expr(self, expr: BExpr) -> int:
        """Compile a :class:`~repro.boolalg.expr.BExpr` into a BDD node.

        Compilation results are memoized per structural expression (the
        manager is persistent, so repeated compilation of the same —
        or a structurally equal — formula is a dictionary lookup).
        """
        cached = self._expr_cache.get(expr)
        if cached is not None:
            self._expr_cache.move_to_end(expr)
            return cached
        result = self._compile(expr)
        self._expr_cache[expr] = result
        while len(self._expr_cache) > self.MEMOS["expr"].cap:
            self._expr_cache.popitem(last=False)
        self._trim_caches()
        return result

    def _compile(self, expr: BExpr) -> int:
        if isinstance(expr, _Const):
            return self.one if expr.value else self.zero
        if isinstance(expr, Var):
            return self.var(expr.name)
        if isinstance(expr, _Not):
            return self.apply_not(self.from_expr(expr.operand))
        if isinstance(expr, _And):
            result = self.one
            for arg in expr.args:
                result = self.apply_and(result, self.from_expr(arg))
                if result == self.zero:
                    return result
            return result
        if isinstance(expr, _Or):
            result = self.zero
            for arg in expr.args:
                result = self.apply_or(result, self.from_expr(arg))
                if result == self.one:
                    return result
            return result
        raise TypeError(f"unexpected expression node: {expr!r}")

    def conjoin(self, nodes: Iterable[int]) -> int:
        """The conjunction of already-compiled *nodes* (left fold).

        With a persistent manager the fold is effectively incremental:
        every pairwise AND is memoized in the ite cache, so re-conjoining
        a sequence in which only a suffix changed re-does work only from
        the first changed node onwards.
        """
        result = self.one
        for node in nodes:
            result = self.apply_and(result, node)
            if result == self.zero:
                break
        self._trim_caches()
        return result

    # -- model queries ----------------------------------------------------------------

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the function at a total assignment."""
        current = node
        while current not in (self.zero, self.one):
            level, low, high = self._nodes[current]
            name = self._order[level]
            current = high if assignment.get(name, False) else low
        return current == self.one

    def sat_count(self, node: int, over: Iterable[str]) -> int:
        """Number of models over the variable set *over* (must cover the
        support of *node*)."""
        names = list(dict.fromkeys(over))
        for name in names:
            self.declare(name)
        levels = sorted(self._levels[name] for name in names)
        level_index = {level: i for i, level in enumerate(levels)}
        total_levels = len(levels)
        support_levels = self._support_levels(node)
        missing = support_levels - set(levels)
        if missing:
            missing_names = [self._order[level] for level in sorted(missing)]
            raise ValueError(
                f"sat_count variable set must cover the support; missing "
                f"{missing_names}")
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            """Models of the sub-function counted over variables at or
            below the current node's level, scaled at the call site."""
            if current == self.zero:
                return 0
            if current == self.one:
                return 1
            if current in cache:
                return cache[current]
            level, low, high = self._nodes[current]
            position = level_index[level]
            result = 0
            for child in (low, high):
                child_models = walk(child)
                child_level = self._level(child)
                child_position = (level_index[child_level]
                                  if child_level in level_index
                                  else total_levels)
                gap = child_position - position - 1
                result += child_models << gap
            cache[current] = result
            return result

        top_level = self._level(node)
        top_position = (level_index[top_level]
                        if top_level in level_index else total_levels)
        return walk(node) << top_position

    def _support_levels(self, node: int) -> set[int]:
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in (self.zero, self.one) or current in seen:
                continue
            seen.add(current)
            level, low, high = self._nodes[current]
            levels.add(level)
            stack.extend((low, high))
        return levels

    def support(self, node: int) -> frozenset[str]:
        """Variable names the function actually depends on."""
        return frozenset(self._order[level]
                         for level in self._support_levels(node))

    def max_true_model(self, node: int,
                       over: Iterable[str]) -> dict[str, bool] | None:
        """A model maximizing the number of true variables over *over*.

        Returns None when the function is unsatisfiable. Deterministic:
        ties prefer the high (true) branch, then the low branch. Used by
        the engine's ASAP policy to pick a maximal step without
        enumerating every model, and by lint's CCS001.

        Each node's best branch is memoized across calls, one memo per
        variable set: a call walks only the nodes no earlier call over
        the same set reached. The memo is level-keyed (positions follow
        the order), so a reorder drops it; it is trimmed like the exists
        memo. A node the walk reaches at a level outside *over* is a
        :class:`ValueError` naming every support variable *over* misses,
        so the set must still cover the support of *node*.
        """
        if node == self.zero:
            return None
        key = tuple(over)
        best = self._max_model_cache.get(key)
        if best is None:
            best = self._max_model_cache[key] = _MaxModelMemo()
            best.names = list(dict.fromkeys(key))
            for name in best.names:
                self.declare(name)
            levels = sorted(self._levels[name] for name in best.names)
            best.position = {level: i for i, level in enumerate(levels)}
        names, position_of = best.names, best.position
        total = len(position_of)
        nodes = self._nodes
        zero = self.zero
        one = self.one

        def position(child: int) -> int:
            return total if child <= one else position_of[nodes[child][0]]

        # best[node] = (true-count below node incl. free gaps, value, child)
        def walk(current: int) -> int:
            """Max true-count achievable from *current* (its own level
            onwards); free gaps below children count fully as true."""
            if current == one:
                return 0
            entry = best.get(current)
            if entry is not None:
                return entry[0]
            level, low, high = nodes[current]
            at = position_of.get(level)
            if at is None:
                missing = self._support_levels(node) - set(position_of)
                raise ValueError(
                    f"max_true_model variable set must cover the support; "
                    f"missing {[self._order[lv] for lv in sorted(missing)]}")
            # ties prefer the high (true) branch
            entry = None
            if high != zero:
                entry = (walk(high) + position(high) - at, True, high)
            if low != zero:
                score = walk(low) + position(low) - at - 1
                if entry is None or score > entry[0]:
                    entry = (score, False, low)
            best[current] = entry
            return entry[0]

        walk(node)
        model = {name: True for name in names}  # free vars default true
        current = node
        while current != one:
            _score, value, child = best[current]
            model[self._order[nodes[current][0]]] = value
            current = child
        if len(best) > self.MEMOS["max_model"].cap:
            best.clear()
        return model

    def iter_models(self, node: int,
                    over: Iterable[str]) -> Iterator[dict[str, bool]]:
        """Enumerate every model over *over* (a superset of the support),
        in a deterministic order (False branches first, order-respecting)."""
        names = list(dict.fromkeys(over))
        for name in names:
            self.declare(name)
        levels = sorted(self._levels[name] for name in names)
        support_levels = self._support_levels(node)
        missing = support_levels - set(levels)
        if missing:
            missing_names = [self._order[level] for level in sorted(missing)]
            raise ValueError(
                f"iter_models variable set must cover the support; missing "
                f"{missing_names}")

        def expand(position: int, stop_level: int,
                   partial: dict[str, bool]) -> Iterator[tuple[int, dict[str, bool]]]:
            """Yield (next_position, assignment) filling free variables
            between *position* and *stop_level* with both polarities."""
            if position >= len(levels) or levels[position] >= stop_level:
                yield position, partial
                return
            name = self._order[levels[position]]
            for value in (False, True):
                extended = dict(partial)
                extended[name] = value
                yield from expand(position + 1, stop_level, extended)

        def walk(current: int, position: int,
                 partial: dict[str, bool]) -> Iterator[dict[str, bool]]:
            if current == self.zero:
                return  # prune before expanding free variables
            stop_level = self._level(current)
            for next_position, filled in expand(position, stop_level, partial):
                if current == self.one:
                    # expand already filled every remaining free variable
                    yield filled
                    continue
                level, low, high = self._nodes[current]
                name = self._order[level]
                for value, child in ((False, low), (True, high)):
                    extended = dict(filled)
                    extended[name] = value
                    yield from walk(child, next_position + 1, extended)

        yield from walk(node, 0, {})
