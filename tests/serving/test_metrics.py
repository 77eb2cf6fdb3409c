"""Unit tests for the serving-layer latency histogram."""

from __future__ import annotations

import pytest

from repro.obs.metrics import BUCKET_EDGES, LatencyHistogram


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.mean_seconds == 0.0
        assert h.percentile(0.5) == 0.0
        assert h.snapshot() == {"count": 0}

    def test_count_mean_min_max_exact(self):
        h = LatencyHistogram()
        for us in (1, 3, 10, 100):
            h.record(us * 1e-6)
        assert h.count == 4
        assert h.mean_seconds == pytest.approx(28.5e-6)
        assert h.min_seconds == pytest.approx(1e-6)
        assert h.max_seconds == pytest.approx(100e-6)

    def test_bucketing_is_log2(self):
        h = LatencyHistogram()
        h.record(1.5e-6)  # (1µs, 2µs]
        h.record(3e-6)  # (2µs, 4µs]
        h.record(3.5e-6)  # (2µs, 4µs]
        nonzero = [(i, c) for i, c in enumerate(h.counts) if c]
        assert nonzero == [(1, 1), (2, 2)]

    def test_percentile_upper_edge(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.record(1.5e-6)
        h.record(0.9e-3)
        assert h.percentile(0.5) == BUCKET_EDGES[1]  # 2µs bucket edge
        assert h.percentile(0.99) == BUCKET_EDGES[1]
        assert h.percentile(1.0) >= 0.5e-3

    def test_percentile_validation(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_overflow_bucket(self):
        h = LatencyHistogram()
        h.record(10.0)  # beyond the ~1s last edge
        assert h.counts[-1] == 1
        assert h.percentile(1.0) == 10.0

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(1e-6)
        b.record(5e-6)
        b.record(9e-3)
        a.merge(b)
        assert a.count == 3
        assert a.max_seconds == pytest.approx(9e-3)
        assert a.total_seconds == pytest.approx(1e-6 + 5e-6 + 9e-3)

    def test_snapshot_shape(self):
        h = LatencyHistogram()
        for us in (2, 2, 50):
            h.record(us * 1e-6)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["mean_us"] == pytest.approx(18.0)
        assert snap["p50_us"] >= snap["min_us"]
        assert snap["p99_us"] <= snap["max_us"] * 2  # bucket resolution
        assert sum(snap["buckets"].values()) == 3
