"""Unit tests for the serving-tier telemetry module."""

import threading

from repro.service.telemetry import (
    DEFAULT_WINDOW,
    EndpointStats,
    Telemetry,
    percentile,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0


class TestEndpointStats:
    def test_counts_and_classification(self):
        stats = EndpointStats(window=16)
        stats.observe(0.010, 200)
        stats.observe(0.020, 400)   # client error: counted, not an error
        stats.observe(0.030, 500)   # server error
        stats.observe(0.000, 429)   # shed
        summary = stats.summary()
        assert summary["count"] == 4
        assert summary["errors"] == 1
        assert summary["shed"] == 1
        assert summary["window"] == 4

    def test_window_slides(self):
        stats = EndpointStats(window=4)
        for i in range(10):
            stats.observe(float(i), 200)
        summary = stats.summary()
        assert summary["count"] == 10          # all-time
        assert summary["window"] == 4          # only the newest 4 retained
        assert summary["p50_ms"] >= 6_000.0    # 6..9 s in ms

    def test_percentiles_in_ms(self):
        # nearest rank over 100 samples: p99 is the 99th value, so two
        # slow outliers are needed for it to land on the slow tail
        stats = EndpointStats(window=128)
        for _ in range(98):
            stats.observe(0.001, 200)
        stats.observe(1.0, 200)
        stats.observe(1.0, 200)
        summary = stats.summary()
        assert abs(summary["p50_ms"] - 1.0) < 1e-9
        assert abs(summary["p99_ms"] - 1000.0) < 1e-9


class TestTelemetry:
    def test_counters(self):
        t = Telemetry()
        t.counter("shed_queue_full")
        t.counter("shed_queue_full", 2)
        t.counter("shed_timeout", 5)
        assert t.counters()["shed_queue_full"] == 3
        assert t.shed_total() == 8

    def test_observe_feeds_counters_and_endpoint(self):
        t = Telemetry()
        t.observe("query", 0.01, 200)
        t.observe("query", 0.02, 200)
        t.observe("query", 0.00, 429)
        t.observe("update", 0.05, 503)
        counters = t.counters()
        assert counters["requests"] == 4
        assert counters["responses_2xx"] == 2
        assert counters["responses_4xx"] == 1
        assert counters["responses_5xx"] == 1
        snap = t.snapshot()
        assert snap["endpoints"]["query"]["count"] == 3
        assert snap["endpoints"]["query"]["shed"] == 1
        assert snap["endpoints"]["update"]["errors"] == 1

    def test_gauges_evaluate_at_snapshot_time(self):
        t = Telemetry()
        box = {"v": 1}
        t.set_gauge("depth", lambda: box["v"])
        t.set_gauge("limit", 64)
        assert t.snapshot()["gauges"] == {"depth": 1, "limit": 64}
        box["v"] = 7
        assert t.snapshot()["gauges"]["depth"] == 7  # live, not stale

    def test_snapshot_shed_block(self):
        t = Telemetry()
        t.counter("shed_queue_full", 3)
        t.counter("shed_timeout", 2)
        assert t.snapshot()["shed"] == {
            "queue_full": 3, "client_cap": 0, "timeout": 2, "total": 5,
        }

    def test_default_window(self):
        assert DEFAULT_WINDOW == 2048
        t = Telemetry(window=2)
        t.observe("q", 1.0, 200)
        t.observe("q", 2.0, 200)
        t.observe("q", 3.0, 200)
        assert t.snapshot()["endpoints"]["q"]["window"] == 2

    def test_thread_safety_totals(self):
        t = Telemetry()
        n, per = 8, 500

        def worker():
            for _ in range(per):
                t.counter("hits")
                t.observe("query", 0.001, 200)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert t.counters()["hits"] == n * per
        assert t.counters()["requests"] == n * per
        assert t.snapshot()["endpoints"]["query"]["count"] == n * per
