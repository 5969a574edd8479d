"""The generic execution engine (paper Fig. 1, right-hand side).

An :class:`ExecutionModel` — the instantiated constraints plus the event
set of one specific model — *configures* this engine; the engine itself
is DSL-agnostic. Two drivers are provided:

* :func:`~repro.engine.simulator.simulate_model` — step-by-step
  simulation under a scheduling policy, producing a
  :class:`~repro.engine.trace.Trace`;
* :func:`~repro.engine.explorer.explore` — exhaustive exploration of the
  scheduling state space, producing a
  :class:`~repro.engine.statespace.StateSpace` with quantitative metrics
  (the paper's conclusion: "to obtain by exploration quantitative
  results on the scheduling state-space").

Questions about that state space are asked one way: as CTL
(:func:`~repro.engine.ctl.check_space`, or :func:`~repro.engine.ctl.check`
on the model), answered with a three-valued
:class:`~repro.engine.ctl.Verdict`. The one step-level question CTL
cannot phrase — no two of these events *taken* in one step — is
:func:`~repro.engine.analysis.check_mutual_exclusion`.

Architecture: the incremental symbolic kernel
=============================================

The engine's hot path is symbolic: at every step the conjunction of the
constraints' boolean formulas is compiled to a BDD and queried. Three
mechanisms make that incremental instead of per-step-throwaway:

**Persistent manager.** Every execution model owns one
:class:`~repro.engine.execution_model.SymbolicKernel` holding a single
:class:`~repro.boolalg.bdd.Bdd` manager for the model's lifetime. The
manager's node table is append-only with a stable variable order, so
node ids stay valid forever and hash-consing makes a node id a
canonical key for its boolean function. Clones share the kernel —
exploration, simulation campaigns and repeated analyses of one model
all reuse each other's compiled results. All kernel caches are bounded
LRUs with a :meth:`~repro.engine.execution_model.ExecutionModel.\
clear_caches` hook.

**Dirty tracking.** Each constraint runtime reports a
:meth:`~repro.moccml.semantics.runtime.ConstraintRuntime.\
formula_version` — a token that changes only when its step formula may
have changed. The kernel compiles a constraint at most once per
version: stateless constraints compile exactly once, a bounded counter
compiles once per *regime* (e.g. at-zero / in-between / at-bound)
rather than once per value. The global conjunction is memoized per
compiled-node tuple, and re-conjoining after a partial change redoes
work only from the first dirty node (pairwise ANDs are memoized in the
manager).

**Snapshot/restore contract.** Alongside ``clone()``, every runtime
offers a lightweight ``snapshot()``/``restore()`` pair: the snapshot is
a plain value token (counter, state name, tuple) that stays valid
across any number of restores. The explorer walks the whole state space
with a *single* working model — advance, hash, restore — keeping only
snapshot tokens in its BFS frontier; campaigns rewind one clone between
policy runs instead of re-cloning.

Choosing a strategy — exploration and property checking
=======================================================

:func:`~repro.engine.explorer.explore` and the temporal-property
checker :func:`~repro.engine.ctl.check` both take
``strategy="explicit" | "symbolic" | "auto"``. Exploration produces
byte-identical state spaces either way, and property checks return
identical verdicts *and* identical witness traces (the
:mod:`repro.engine.equivalence` harness asserts both corpus-wide, and
``repro selftest`` re-checks them on demand) — so the choice is about
cost, and about what a bounded budget can soundly conclude:

``"explicit"``
    One working model advanced and restored per edge. No setup cost and
    no encodability requirement — the right choice for small models,
    one-shot explorations, and models with (locally) unbounded counters
    such as an unbounded CCSL precedence, which cannot be finitely
    encoded. Property checks on an explicit space are *three-valued*
    (:class:`~repro.engine.ctl.Verdict`): when the
    ``max_states``/``max_depth`` budget truncates the exploration, a
    check returns ``HOLDS``/``FAILS`` only if the explored region alone
    proves it (e.g. a safety violation was found) and ``UNKNOWN``
    otherwise — never "verified" from a partial search.

``"symbolic"``
    The model is first compiled to a BDD transition relation over event
    variables plus per-constraint state bits
    (:mod:`repro.engine.symbolic`); graph construction then runs over
    encoded states with table lookups instead of runtime mutation, and
    the compiled system is cached on the model's kernel for reuse by
    clones. The *fixpoint* APIs never build a graph at all:
    :func:`~repro.engine.symbolic.symbolic_reachable` computes the
    reachable set by forward image iteration, and
    :func:`~repro.engine.ctl.check` evaluates full CTL (EX/EF/EG/EU and
    the A-duals, plus ``leads_to``) by backward
    :meth:`~repro.engine.symbolic.TransitionSystem.preimage` fixpoints
    on that relation — definitive verdicts on spaces whose explicit
    graphs are far too large to build (``bench_e12``/``bench_e13``).
    Raises :class:`~repro.errors.SymbolicEncodingError` when a
    constraint's local state space is unbounded.

``"auto"``
    Symbolic for models with at least
    :data:`~repro.engine.explorer.AUTO_EVENT_THRESHOLD` events, with a
    transparent fallback to explicit when the model is not finitely
    encodable; for property checks on small models it additionally
    escalates to symbolic whenever the explicit verdict comes back
    ``UNKNOWN``. Use this when batching heterogeneous models — it is
    the default of ``repro check`` and ``CheckSpec``.

Tuning the symbolic backend — relation layout and reordering
============================================================

Within ``strategy="symbolic"`` two further knobs trade compile cost
against iteration cost. Both are *verdict-neutral*: every artifact —
state space, verdict, witness — is byte-identical under any setting
(``tests/engine/test_relation_modes.py`` sweeps the corpus to pin
this); only the cost profile moves.

``relation_mode="partitioned"`` (the default) keeps the transition
relation as a list of per-constraint conjuncts, clustered up to
:data:`~repro.engine.symbolic.DEFAULT_CLUSTER_CAP` nodes
(``cluster_cap``), and computes images and preimages by early
quantification — conjoin a cluster, quantify the variables no later
cluster mentions, move on. ``relation_mode="monolithic"`` eagerly
conjoins everything into one relation BDD at compile time.

The honest guidance, from the bench data (``bench_e15``): on *open*
topologies (chains, open meshes, crossbars) below the blowup
transition, monolithic is mildly *faster* — one conjoined relation
makes each image a single ``and_exists``, and the connection-order
variable layout keeps the conjunction small. Past the transition the
monolithic conjunction explodes super-linearly (mesh(4,4) at capacity
3: ~29M nodes, 3.5x slower) — and on *wrap-around* topologies
(toruses), where no linear variable order can keep every coupled pair
adjacent, it is never competitive: 4.5x slower at torus(4,5), ~25x at
torus(6,6) (~9 minutes for the eager conjoin alone vs seconds
partitioned, growing without bound with size). Since the partitioned
penalty on small models is a few hundred milliseconds at worst and the
monolithic penalty at the frontier is unbounded, partitioned is the
default; force ``relation_mode="monolithic"`` only for small,
open-topology models checked many times against one compiled kernel.

Dynamic variable reordering (:meth:`~repro.boolalg.bdd.Bdd.reorder`,
Rudell sifting) is the escape hatch for a bad variable order. It runs
automatically: node-table growth past a threshold schedules a reorder,
which the owning :class:`~repro.engine.symbolic.TransitionSystem`
fires at fixpoint safe points, pinning in-flight iterates. Because the
append-only table counts transient allocations, an auto-fired reorder
first probes the truly live structure and *skips* the sift (keeping
all operation caches) when growth is churn-dominated — live nodes
below an eighth of the table — so healthy orders are never torn up
mid-fixpoint. ``reorder_budget`` caps sift passes per firing; explicit
``system.bdd.reorder()`` always sifts to convergence.

Property syntax, worked example
===============================

Properties are state formulas over atoms ``occurs(event)`` (a step
containing *event* is acceptable here), ``deadlock``,
``state(label, value)`` (a constraint's local control state) and
``var(label.name) OP k`` (automaton variable bounds), combined with
``!``/``&``/``|``/``->`` and the CTL operators ``AG AF AX EG EF EX``,
``A[p U q]``/``E[p U q]`` and the response pattern ``p leads_to q``::

    from repro.workbench import Workbench
    wb = Workbench()
    wb.add("app.sigpml", name="app")
    result = wb.check("app", "AG !deadlock")          # CheckSpec
    result.data["verdict"]                            # "holds"
    bad = wb.check("app", "occurs(a.start) leads_to occurs(b.start)")
    bad.trace().to_ascii()   # counterexample schedule, when one exists

or from the shell: ``repro check app.sigpml "AF occurs(b.start)"
--strategy symbolic`` (exit code 0 iff the verdict is HOLDS).
"""

from repro.engine.execution_model import ExecutionModel, SymbolicKernel
from repro.engine.policies import (
    AsapPolicy,
    MinimalPolicy,
    PriorityPolicy,
    RandomPolicy,
    ReplayPolicy,
    SchedulingPolicy,
)
from repro.engine.trace import Trace
from repro.engine.simulator import SimulationResult, simulate_model
from repro.engine.explorer import explore
from repro.engine.statespace import StateSpace
from repro.engine.analysis import (
    event_liveness,
    max_cycle_mean_throughput,
    parallelism_profile,
    simulated_throughput,
    symbolic_check_variable_bound,
    symbolic_deadlock_free,
    symbolic_event_liveness,
    symbolic_variable_bounds,
    variable_bounds,
)
from repro.engine.equivalence import assert_equivalent, cross_check
from repro.engine.ctl import (
    CheckResult,
    Verdict,
    check,
    check_space,
    parse_property,
    replay_steps,
)
from repro.engine.symbolic import (
    CompiledStateView,
    ReachableSet,
    TransitionSystem,
    compile_transition_system,
    symbolic_reachable,
)
from repro.engine.campaign import format_campaign

__all__ = [
    "format_campaign",
    "ExecutionModel", "SymbolicKernel",
    "SchedulingPolicy", "RandomPolicy", "AsapPolicy", "MinimalPolicy",
    "PriorityPolicy", "ReplayPolicy",
    "Trace",
    "SimulationResult", "simulate_model",
    "explore", "StateSpace",
    "event_liveness", "parallelism_profile", "variable_bounds",
    "max_cycle_mean_throughput", "simulated_throughput",
    "symbolic_reachable", "ReachableSet", "TransitionSystem",
    "CompiledStateView", "compile_transition_system",
    "symbolic_deadlock_free", "symbolic_event_liveness",
    "symbolic_variable_bounds", "symbolic_check_variable_bound",
    "assert_equivalent", "cross_check",
    "check", "check_space", "parse_property", "replay_steps",
    "CheckResult", "Verdict",
]
