"""Metric primitives: counters, gauges, and log₂-bucket histograms.

:class:`LatencyHistogram` is the fixed-bucket log₂ histogram: recording
is O(log #buckets) with no allocation, so it is cheap enough to sit on
the hot query path, and the bucket layout is identical across
histograms so snapshots can be compared side by side (cached vs
uncached, case by case).

:class:`Counter` and :class:`Gauge` are the two scalar companions every
metrics system ships: a counter only accumulates (requests served,
elimination rounds run), a gauge holds the latest observed value
(boundary size, resident bytes).  All three expose ``reset()`` so a
long-lived process can zero a measurement window without re-registering
the metric — registry entries keep their identity across resets.
"""

from __future__ import annotations

import bisect

from repro.exceptions import ConfigurationError

#: Bucket upper edges in seconds: 1µs · 2^k for k = 0..20 (≈ 1µs to 1s).
#: Durations beyond the last edge land in a final overflow bucket.
BUCKET_EDGES: tuple[float, ...] = tuple((2.0**k) * 1e-6 for k in range(21))


class Counter:
    """Monotonically increasing count (requests, rounds, probes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter(value={self.value})"


class Gauge:
    """Last-observed value (sizes, ratios, high-water marks)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge(value={self.value})"


class LatencyHistogram:
    """Log₂-bucket latency histogram with exact count/mean/min/max."""

    __slots__ = ("counts", "count", "total_seconds", "min_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_EDGES) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Account one duration (in seconds)."""
        self.counts[bisect.bisect_left(BUCKET_EDGES, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        """Exact mean duration (0.0 when empty)."""
        return self.total_seconds / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-resolution percentile estimate, in seconds.

        Returns the upper edge of the bucket containing the ``q``-th
        quantile (``0 < q <= 1``); 0.0 when the histogram is empty.  The
        overflow bucket reports the largest recorded duration.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile {q} outside (0, 1]")
        if not self.count:
            return 0.0
        threshold = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= threshold:
                if index < len(BUCKET_EDGES):
                    return BUCKET_EDGES[index]
                return self.max_seconds
        return self.max_seconds

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total_seconds += other.total_seconds
        if other.count:
            self.min_seconds = min(self.min_seconds, other.min_seconds)
            self.max_seconds = max(self.max_seconds, other.max_seconds)

    def reset(self) -> None:
        """Zero every bucket and the exact statistics."""
        for index in range(len(self.counts)):
            self.counts[index] = 0
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0

    def snapshot(self) -> dict:
        """Plain-data summary (microseconds) for reports and JSON."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_us": self.mean_seconds * 1e6,
            "min_us": self.min_seconds * 1e6,
            "max_us": self.max_seconds * 1e6,
            "p50_us": self.percentile(0.50) * 1e6,
            "p95_us": self.percentile(0.95) * 1e6,
            "p99_us": self.percentile(0.99) * 1e6,
            # Sparse bucket view: upper edge (µs) -> count, non-empty only.
            "buckets": {
                (BUCKET_EDGES[i] * 1e6 if i < len(BUCKET_EDGES) else float("inf")): c
                for i, c in enumerate(self.counts)
                if c
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, "
            f"mean_us={self.mean_seconds * 1e6:.2f})"
        )


__all__ = ["BUCKET_EDGES", "Counter", "Gauge", "LatencyHistogram"]
