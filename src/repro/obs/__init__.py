"""repro.obs — the unified tracing, metrics and profiling layer.

Every subsystem (engine, workbench, farm, serve, fuzz) reports into the
same three primitives:

* **spans** (:func:`span`) — nested, thread-aware timed regions with a
  zero-cost no-op default; see :mod:`repro.obs.tracer`;
* **counters/gauges/histograms** — the lock-guarded
  :class:`MetricsRegistry` (:mod:`repro.obs.metrics`), with a
  process-global :data:`GLOBAL` instance behind :func:`count` and
  :func:`observe`;
* **exports** — Chrome trace-event JSON (Perfetto-loadable) and a
  plain-text self-time profile (:mod:`repro.obs.export`), surfaced as
  ``repro profile <cmd...>`` and ``--trace FILE`` on
  ``explore``/``check``/``batch``/``fuzz``.

Telemetry is strictly **out-of-band**: canonical run-result artifacts
are byte-identical with tracing enabled or disabled (pinned by
``tests/obs`` and ``benchmarks/bench_e18_obs.py``).

Span-naming convention
======================

=============================  ============================================
span name                      region (attributes)
=============================  ============================================
``repro.profile``              one ``repro profile``-wrapped command (cmd)
``model.load``                 front-end dispatch + weave (frontend, model)
``workbench.run_many``         one batch (runs, backend, workers)
``workbench.run``              one spec execution (model, kind, cached)
``farm.group``                 one model group on a backend (model, runs)
``farm.worker``                a process worker's group (model, runs)
``serve.request``              one ``POST /run`` (runs)
``symbolic.compile``           TransitionSystem build (mode, clusters,
                               bdd_nodes)
``symbolic.closure``           one constraint's local-state closure
                               (constraint, states)
``symbolic.fixpoint``          a reachability fixpoint (iterations, nodes)
``symbolic.fixpoint.iteration``  one frontier step (depth, frontier_nodes,
                               reached_nodes)
``ctl.check``                  one property check (property, strategy,
                               verdict)
``check.witness``              witness/counterexample extraction (kind,
                               steps)
``explore.bfs``                explicit BFS (states, transitions,
                               truncated)
``bdd.reorder``                one sifting run (auto, nodes_before,
                               nodes_after, reduction)
=============================  ============================================

Counter-naming convention
=========================

Every engine, farm and fuzz layer counts on the process-global
:data:`GLOBAL` registry; no layer keeps a private counter dict.

================================================  ===========================
counter names                                     what they count
================================================  ===========================
``symbolic.images``/``symbolic.preimages``/       image and preimage steps,
``symbolic.compiles``                             TransitionSystem builds
``bdd.reorders``/``bdd.reorder_skips``            sifting runs, churn skips
``sat.decisions``/``sat.propagations``            DPLL work
``store.hits``/``store.misses``                   artifact-store lookups
``explore.spaces``                                explicit BFS runs
``model.loads``                                   front-end loads
``encodability.predicted_encodable``/             encodability predictions
``encodability.predicted_unencodable``
``encodability.closure_fallbacks``                predictions decided by the
                                                  local closure
``encodability.safety_net_raises``                predictor misses (a bug)
================================================  ===========================

The serve subsystem seeds its own request/run/cache counters on a
per-server registry (:class:`repro.serve.metrics.Metrics`, a subclass);
its ``/metrics`` document also reports the four ``encodability.*``
counters as its ``"encodability"`` block.
"""

from repro.obs.export import chrome_trace_doc, profile_report, write_chrome_trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    GLOBAL,
    LatencyHistogram,
    MetricsRegistry,
    count,
    engine_snapshot,
    observe,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    capture,
    current_tracer,
    detach_context,
    disable_tracing,
    enable_tracing,
    span,
    tracing_active,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "GLOBAL",
    "LatencyHistogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "capture",
    "chrome_trace_doc",
    "count",
    "current_tracer",
    "detach_context",
    "disable_tracing",
    "enable_tracing",
    "engine_snapshot",
    "observe",
    "profile_report",
    "span",
    "tracing_active",
    "write_chrome_trace",
]
