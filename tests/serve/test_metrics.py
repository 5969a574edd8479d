"""Metrics: histograms, counters, gauges, the snapshot document."""

import threading

from repro.serve.metrics import DEFAULT_BUCKETS, LatencyHistogram, Metrics

#: the exact top-level key order GET /metrics has always promised —
#: Metrics moving onto the shared repro.obs registry must not move,
#: rename or drop any of these.
SNAPSHOT_KEYS = ("uptime_s", "counters", "cache_hit_rate", "latency",
                 "gauges")

#: the seeded counter names a fresh server reports as zeros
SEEDED_COUNTERS = frozenset({
    "requests", "requests_failed", "runs", "run_errors",
    "store_hits", "store_misses", "model_cache_hits",
    "model_cache_misses", "model_compiles", "model_evictions",
})

#: the seeded latency histograms (present even when empty)
SEEDED_HISTOGRAMS = frozenset({"request_s", "run_s", "compile_s"})


class TestLatencyHistogram:
    def test_empty_percentile_is_none(self):
        assert LatencyHistogram().percentile(0.5) is None

    def test_snapshot_empty(self):
        snap = LatencyHistogram().snapshot()
        assert snap == {"count": 0, "sum_s": 0.0, "max_s": 0.0}

    def test_record_accumulates(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.003):
            histogram.record(value)
        assert histogram.total == 3
        assert abs(histogram.sum - 0.006) < 1e-9
        assert histogram.max == 0.003

    def test_percentiles_are_ordered(self):
        histogram = LatencyHistogram()
        for i in range(1, 101):
            histogram.record(i / 1000.0)  # 1ms .. 100ms
        p50 = histogram.percentile(0.5)
        p90 = histogram.percentile(0.9)
        p99 = histogram.percentile(0.99)
        assert p50 <= p90 <= p99
        # accurate to a bucket width: the true p50 is ~50ms, inside
        # the (25ms, 50ms] bucket
        assert 0.025 <= p50 <= 0.1

    def test_overflow_bucket_reports_max(self):
        histogram = LatencyHistogram()
        histogram.record(500.0)  # beyond the last bound
        assert histogram.counts[-1] == 1
        assert histogram.percentile(0.5) == 500.0

    def test_negative_values_clamp_to_zero(self):
        histogram = LatencyHistogram()
        histogram.record(-1.0)
        assert histogram.sum == 0.0
        assert histogram.total == 1

    def test_bounds_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestMetrics:
    def test_count_and_snapshot(self):
        metrics = Metrics()
        metrics.count("requests")
        metrics.count("requests", 2)
        snap = metrics.snapshot()
        assert snap["counters"]["requests"] == 3

    def test_unknown_counter_is_created(self):
        metrics = Metrics()
        metrics.count("something_new")
        assert metrics.snapshot()["counters"]["something_new"] == 1

    def test_observe_feeds_histogram(self):
        metrics = Metrics()
        metrics.observe("request_s", 0.01)
        snap = metrics.snapshot()
        assert snap["latency"]["request_s"]["count"] == 1

    def test_observe_unknown_histogram_is_created(self):
        metrics = Metrics()
        metrics.observe("custom_s", 0.5)
        assert metrics.snapshot()["latency"]["custom_s"]["count"] == 1

    def test_cache_hit_rate(self):
        metrics = Metrics()
        assert metrics.snapshot()["cache_hit_rate"] is None
        metrics.count("store_hits", 3)
        metrics.count("store_misses", 1)
        assert metrics.snapshot()["cache_hit_rate"] == 0.75

    def test_gauges_polled_at_snapshot(self):
        metrics = Metrics()
        value = [7]
        metrics.register_gauge("nodes", lambda: value[0])
        assert metrics.snapshot()["gauges"]["nodes"] == 7
        value[0] = 13
        assert metrics.snapshot()["gauges"]["nodes"] == 13

    def test_failing_gauge_never_breaks_snapshot(self):
        metrics = Metrics()

        def broken():
            raise RuntimeError("kernel went away")

        metrics.register_gauge("bad", broken)
        snap = metrics.snapshot()
        assert snap["gauges"]["bad"].startswith("error:")

    def test_thread_safety_of_counters(self):
        metrics = Metrics()

        def work():
            for _ in range(500):
                metrics.count("runs")
                metrics.observe("run_s", 0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = metrics.snapshot()
        assert snap["counters"]["runs"] == 4000
        assert snap["latency"]["run_s"]["count"] == 4000


class TestGoldenPayloadShape:
    """The /metrics wire contract, pinned: the move onto the shared
    :class:`repro.obs.MetricsRegistry` must be invisible on the wire."""

    def test_fresh_snapshot_key_order_and_seeds(self):
        snap = Metrics().snapshot()
        assert tuple(snap) == SNAPSHOT_KEYS
        assert set(snap["counters"]) == SEEDED_COUNTERS
        assert all(value == 0 for value in snap["counters"].values())
        assert set(snap["latency"]) == SEEDED_HISTOGRAMS
        for histogram in snap["latency"].values():
            assert histogram == {"count": 0, "sum_s": 0.0, "max_s": 0.0}
        assert snap["cache_hit_rate"] is None
        assert snap["gauges"] == {}
        assert snap["uptime_s"] >= 0.0

    def test_metrics_is_the_shared_registry_but_not_the_global_one(self):
        from repro import obs

        metrics = Metrics()
        assert isinstance(metrics, obs.MetricsRegistry)
        assert metrics is not obs.GLOBAL
        # per-server counters never leak into the process-global
        # registry the engine writes to
        before = obs.GLOBAL.counter("requests")
        metrics.count("requests")
        assert obs.GLOBAL.counter("requests") == before

    def test_reset_preserves_the_seeded_shape(self):
        metrics = Metrics()
        metrics.count("runs", 5)
        metrics.observe("custom_s", 0.1)
        metrics.reset()
        snap = metrics.snapshot()
        assert tuple(snap) == SNAPSHOT_KEYS
        assert set(snap["counters"]) >= SEEDED_COUNTERS
        assert snap["counters"]["runs"] == 0
        # reset drops histogram history; the wire shape only promises
        # that recorded phases reappear as they are observed
        metrics.observe("run_s", 0.2)
        snap_after = metrics.snapshot()
        assert snap_after["latency"]["run_s"]["count"] == 1


class TestDrainReportShape:
    """The drain log (``AnalysisService.close``) is the /metrics
    document plus the service-level sections and the eviction count."""

    def _service(self):
        from repro.serve.server import AnalysisService

        return AnalysisService(max_models=2, workers=1)

    def _document(self):
        text = """
        application drainapp {
          agent src
          agent dst
          place src -> dst push 1 pop 1 capacity 2
        }
        """
        return {"models": {"m": {"frontend": "sigpml", "text": text}},
                "runs": [{"kind": "simulate", "model": "m",
                          "steps": 4}]}

    def test_drain_report_extends_the_metrics_document(self):
        service = self._service()
        summary = service.handle_request(self._document(),
                                         lambda line: None)
        assert summary["errors"] == 0
        service.begin_drain()
        assert service.drained()
        report = service.close()
        assert tuple(report)[:5] == SNAPSHOT_KEYS
        assert set(report) == set(SNAPSHOT_KEYS) | {
            "model_cache", "encodability", "evicted_on_close"}
        # the encodability block reads the encodability.* counters of
        # the shared obs registry
        assert list(report["encodability"]) == [
            "predicted_encodable", "predicted_unencodable",
            "closure_fallbacks", "safety_net_raises"]
        assert report["encodability"]["predicted_encodable"] >= 1
        assert report["counters"]["requests"] == 1
        assert report["counters"]["runs"] == 1
        assert report["counters"]["model_compiles"] == 1
        assert report["latency"]["request_s"]["count"] == 1
        assert report["evicted_on_close"] == 1
        assert report["gauges"]["models_cached"] == 1  # polled pre-evict
