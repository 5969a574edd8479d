"""repro.fuzz — the continuous differential-fuzzing farm.

The engine has two independent verdict backends (explicit three-valued
exploration and symbolic BDD fixpoints) and five front-ends feeding
them. That redundancy is this package's oracle: generate a well-formed
model, generate CTL properties over its actual events, run every
property through both backends, and *any* disagreement — verdict,
witness, or crash — is a bug by definition, no specification needed.

Pieces (one module each):

``rng``
    deterministic per-case random streams: everything about case
    ``(seed, index)`` is a pure function of that pair, independent of
    order and dedupe;
``generators``
    seeded structure generators + renderers for all five front-ends
    (grammar summary below), emitting exactly the model documents
    ``repro batch`` accepts;
``properties``
    seeded CTL formulas over the generated model's event alphabet,
    built as AST so they parse by construction;
``oracle``
    runs each case through the shared agreement rules of
    :mod:`repro.engine.equivalence` and sorts violations into the
    failure taxonomy (``disagreement`` / ``witness`` / ``crash`` /
    ``static``), each failure carrying a self-contained repro document;
``shrink``
    greedy structure-level minimization of failing cases;
``corpus``
    seen-clean dedupe over a :class:`~repro.farm.ArtifactStore`,
    keyed by farm fingerprints (engine-version-sensitive);
``runner``
    the round driver behind ``repro fuzz`` (count or time budget,
    replay of emitted repro documents).

Generator grammar, per front-end
================================

``sigpml``
    ``application N { agent a_i [cycles 1-2] ; place a_i -> a_j push
    1-2 pop 1-2 capacity 1-3 [delay 1-cap] }`` — 2-4 agents, places
    form a connected DAG plus at most one extra edge; capacity is
    usually ≥ max(push, pop), deliberately sometimes smaller (valid,
    possibly starving).
``deployment``
    a ≤3-agent sigpml application plus ``platform { processor p_i
    [speed 1-2] ; connect all latency 0-2 }`` and an ``allocation``
    mapping every agent to one of 1-2 processors.
``pam``
    the bundled PAM study: configuration ``mono``/``dual`` (never
    ``infinite`` — unbounded places have no finite encoding), capacity
    1, optionally 1-2 per-agent cycle overrides.
``ccsl``
    3-5 events under 1-3 *bounded* kernel-relation instances —
    SubClock, Coincides, Excludes, Union, Intersection, Minus,
    Alternates, BoundedPrecedes, DelayedFor, SampledOn, Deadline,
    PeriodicOn, FilterBy — with dependent integer parameters drawn
    valid (offset < period; filter words fit their bit lengths).
    Unbounded Precedes/Causes are never drawn.
``moccml``
    ccsl constraints plus at least one instantiation from a fixed
    MoCCML library (a bounded sliding-window automaton ``Window`` and
    a declarative ``Chain``), so the MoCCML text parser, automata
    runtimes, and declarative instantiation are exercised.

Properties mix instantiations of the 10-template cross-check battery
(random event substitution) with random formulas over ``occurs(e)`` /
``deadlock`` / ``true`` / ``false`` closed under the boolean
connectives, the eight CTL operators, and ``leads_to``. Three in ten
cases draw a tiny explicit budget (2-30 states) so truncated
three-valued checking is under differential test too.
"""

from repro.fuzz.corpus import Corpus, case_key
from repro.fuzz.generators import (
    FRONTENDS,
    FuzzCase,
    GenerationError,
    build_case,
    generate_case,
    with_structure,
)
from repro.fuzz.oracle import (
    ORACLE_CONFIGS,
    CaseOutcome,
    FuzzFailure,
    check_case,
)
from repro.fuzz.rng import GENERATION, case_rng, sub_rng
from repro.fuzz.runner import replay_document, run_round
from repro.fuzz.shrink import case_size, shrink_case
