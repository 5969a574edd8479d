"""Observability for the analysis service.

One :class:`Metrics` instance aggregates everything the server wants to
report — request/run counters, artifact-store and model-cache hit
rates, kernel compile times, per-phase latency histograms and a live
BDD-node gauge — and renders it as one JSON document
(:meth:`Metrics.snapshot`) for ``GET /metrics`` and the drain log.

The counter/histogram/gauge machinery itself lives in
:mod:`repro.obs.metrics` (the shared, lock-guarded
:class:`~repro.obs.metrics.MetricsRegistry` every subsystem writes to);
this module keeps the serve-specific surface: the seeded counter names
the wire protocol promises and the derived ``cache_hit_rate`` field.

Everything here is *out-of-band* telemetry: nothing a histogram or
counter holds ever enters a canonical result artifact (two identical
requests must stay byte-identical regardless of server history).
"""

from __future__ import annotations

from repro.obs.metrics import LatencyHistogram, MetricsRegistry


class Metrics(MetricsRegistry):
    """The per-server registry with the serve wire-protocol surface.

    Seeds the counters and histograms the ``/metrics`` document always
    carries (a fresh server reports zeros, not absent keys) and adds
    the derived ``cache_hit_rate`` field to every snapshot.
    """

    def __init__(self):
        super().__init__()
        self.counters.update({
            "requests": 0,          # POST /run requests served
            "requests_failed": 0,   # malformed / transport-failed
            "runs": 0,              # individual specs executed
            "run_errors": 0,        # specs that produced error results
            "store_hits": 0,        # results served from the store
            "store_misses": 0,      # results computed fresh
            "model_cache_hits": 0,  # warm kernel reused
            "model_cache_misses": 0,
            "model_compiles": 0,    # front-end load + weave performed
            "model_evictions": 0,   # kernels dropped by the LRU
        })
        self.histograms.update({
            "request_s": LatencyHistogram(),   # whole POST /run
            "run_s": LatencyHistogram(),       # one spec
            "compile_s": LatencyHistogram(),   # one model build
        })

    def snapshot(self) -> dict:
        """The full observability document (``GET /metrics``)."""
        doc = super().snapshot()
        counters = doc["counters"]
        hits, misses = counters["store_hits"], counters["store_misses"]
        served = hits + misses
        return {
            "uptime_s": doc["uptime_s"],
            "counters": counters,
            "cache_hit_rate": (round(hits / served, 6) if served
                               else None),
            "latency": doc["latency"],
            "gauges": doc["gauges"],
        }
