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

At every step the conjunction of the constraints' boolean formulas,
compiled to a BDD, gives the acceptable steps. Exploration and
simulation read it from memoized local tables instead of re-running the
runtimes; four mechanisms make the work incremental instead of
per-step-throwaway:

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

**Formula memo.** The manager memoizes compilation per structural
expression (:meth:`~repro.boolalg.bdd.Bdd.from_expr`), so a formula it
has seen is a dictionary lookup. A local table compiles each state's
formula once; the live model's own queries
(:meth:`~repro.engine.execution_model.ExecutionModel.acceptable_steps`,
``max_step``, ``is_acceptable``, ``count_acceptable_steps``) re-run the
runtimes and compile their current formulas through the same memo, so
a live query recompiles no formula it has seen — those queries stay
the reference the tables are tested against. The global conjunction
is a balanced tree over the constraint slots, memoized per subtree, so
re-conjoining after k constraints changed their formulas redoes about
k·log n pairwise ANDs
(:meth:`~repro.engine.tables.TableStepper.conjunction`).

**Snapshot/restore contract.** Alongside ``clone()``, every runtime
offers a ``snapshot()``/``restore()`` pair: the snapshot is a token
that stays valid across any number of restores — a plain value
(counter, state name, tuple) for the built-in runtimes, a clone by
default. Campaigns rewind one clone between policy runs instead of
re-cloning, and the local tables below restore their probe runtimes
from these tokens.

**Local transition tables.** A constraint's behaviour is a function of
its local state and of the step projected on its own alphabet, so the
kernel memoizes it: one :class:`~repro.engine.tables.LocalTable` per
constraint slot maps (local-state id, projected step) to a successor
id and keeps each id's state key, snapshot token, accepting flag and
step formula. A miss restores a private probe runtime from the id's
token, advances it once and admits the state it reaches; every later
visit — from any clone, in any exploration of the model family — is a
dict lookup. Explicit exploration, simulation and campaigns step
through these tables (:class:`~repro.engine.tables.CompiledStateView`,
whose snapshots are tuples of local ids) and never re-run a runtime on
an edge they have seen; a simulation's policy chooses from the view,
and the caller's model is synced from the tables' snapshot tokens for
observers and at the end of the run. The symbolic closure is the same
table class filled eagerly, which is what its BDD encoding is built
from.

Choosing a strategy — exploration and property checking
=======================================================

Exploration has one path. :func:`~repro.engine.explorer.explore` is a
breadth-first search over the kernel's lazily filled local tables:
each constraint runtime runs once per (local state, projected step)
pair, then the memoized successor is read back. It needs no compile
step and no encodability, so it also explores models with (locally)
unbounded counters, such as an unbounded CCSL precedence or a
cross-processor communication delay, whose tables simply grow with the
explored space. The explored space is cached on the kernel per
(configuration, budgets), so an explore and the explicit checks of the
same model explore once. A compiled symbolic system concretizes to the
byte-identical space through the same BFS
(:meth:`~repro.engine.symbolic.TransitionSystem.to_statespace`), which
is what the :mod:`repro.engine.equivalence` harness compares.

Strategy is a property-check choice: :func:`~repro.engine.ctl.check`
takes ``strategy="explicit" | "symbolic" | "auto"`` and returns
identical verdicts *and* identical witness traces on a complete
exploration (the equivalence harness asserts both corpus-wide, and
``repro selftest`` re-checks them on demand) — so the choice is about
cost, and about what a bounded budget can soundly conclude:

``"explicit"``
    Checks the explored space. Verdicts are *three-valued*
    (:class:`~repro.engine.ctl.Verdict`): when the
    ``max_states``/``max_depth`` budget truncates the exploration, a
    check returns ``HOLDS``/``FAILS`` only if the explored region alone
    proves it (e.g. a safety violation was found) and ``UNKNOWN``
    otherwise — never "verified" from a partial search. The right
    choice for small models and for models that cannot be finitely
    encoded.

``"symbolic"``
    The model is first compiled to a BDD transition relation over event
    variables plus per-constraint state bits
    (:mod:`repro.engine.symbolic`), built from eagerly closed local
    tables and cached on the model's kernel for reuse by clones. The
    fixpoint APIs never build a graph at all:
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
    Explicit first, within the spec's own ``max_states``/``max_depth``
    budget: a definitive verdict is returned as is, whatever the
    model's size. Only an ``UNKNOWN`` goes on to the symbolic fixpoint,
    and only when the encodability predictor allows it; a model that
    cannot be finitely encoded keeps the ``UNKNOWN``, with that reason.
    The budget is the caller's statement of how much explicit work to
    spend, so a space beyond it pays that much before it escalates. Use
    this when batching heterogeneous models — it is the default of
    ``repro check`` and ``CheckSpec``.

Tuning the symbolic backend — the clustered relation and reordering
===================================================================

The symbolic backend keeps the transition relation as its
per-constraint conjuncts, merged in topology order into clusters of at
most :data:`~repro.engine.symbolic.DEFAULT_CLUSTER_CAP` nodes, and
computes every image and preimage by early quantification: conjoin a
cluster, quantify the variables no later cluster mentions, move on
(Burch, Clarke & Long 1991). Nothing conjoins the clusters into one
relation BDD. On wrap-around topologies (toruses), where no linear
variable order keeps every coupled pair adjacent, that conjunction
explodes: the eager conjoin alone took ~9 minutes at torus(6,6), and
compile plus fixpoint ran 3-4x slower at torus(4,4), while the
clustered product checks torus(6,6) in seconds (``bench_e15``).

Dynamic variable reordering (:meth:`~repro.boolalg.bdd.Bdd.reorder`,
Rudell sifting) is the escape hatch for a bad variable order. The
manager only sifts when asked; the one automatic trigger is
:meth:`~repro.engine.symbolic.TransitionSystem._maybe_reorder`, which
the fixpoint loops (reachability, EU, EG, witness distance rings) call
between iterations with the iterates they hold. Each call first trims
the manager's operation memos past their caps, so they stay bounded
for as long as a fixpoint runs. Once the node table
has grown past
:data:`~repro.engine.symbolic.DEFAULT_AUTO_REORDER_THRESHOLD`, it
probes the truly live structure and *skips* the sift (keeping all
operation caches) when growth is churn-dominated — live nodes at most
an eighth of the append-only table — so healthy orders are never torn
up mid-fixpoint; otherwise it sifts at most
:data:`~repro.engine.symbolic.DEFAULT_AUTO_REORDER_BUDGET` variables.
Either way the trigger re-arms at twice the table. An explicit
``system.reorder()`` always sifts to convergence, and every artifact —
state space, verdict, witness — is byte-identical across a reorder
(``tests/engine/test_relation_modes.py``). The stepping memos that
read levels follow suit: the per-node step enumeration carries the
manager's ``reorder_count`` and is rebuilt after a sift, and the
manager drops its ``max_true_model`` memo with its other level-keyed
caches.

Explicit stepping has no settings. Each memo is one row of its owner's
``MEMOS`` table (``Bdd``, ``TableStepper`` and the ``SymbolicKernel``
and ``TransitionSystem`` tables extending it): its name, attribute,
cap and whether it holds reorder roots. ``cache_sizes()``, the trims,
``clear()`` and ``_reorder_roots()`` loop over the tables. A successor
steps only the constraints its step names, plus those that do not
stutter at the state, so on torus(5,5) (175 constraints) an edge reads
about 16 tables, not 175.

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
    max_cycle_mean_throughput,
    parallelism_profile,
    simulated_throughput,
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
from repro.engine.tables import CompiledStateView, LocalTable
from repro.engine.symbolic import (
    ReachableSet,
    TransitionSystem,
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
    "parallelism_profile", "variable_bounds",
    "max_cycle_mean_throughput", "simulated_throughput",
    "symbolic_reachable", "ReachableSet", "TransitionSystem",
    "CompiledStateView", "LocalTable",
    "symbolic_variable_bounds",
    "assert_equivalent", "cross_check",
    "check", "check_space", "parse_property", "replay_steps",
    "CheckResult", "Verdict",
]
