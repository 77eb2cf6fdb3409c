"""Exact percentiles from raw samples, and the correctness gate.

Percentiles use the nearest-rank rule on the sorted raw samples — never
histogram bucket edges — and always travel with their sample count.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1]


def summary(values, scale: float = 1.0) -> dict:
    """``{"n", "p50", "p99"}`` of ``values`` multiplied by ``scale``
    (percentiles read 0 when there are no samples, with ``n`` 0)."""
    if not values:
        return {"n": 0, "p50": 0.0, "p99": 0.0}
    return {
        "n": len(values),
        "p50": percentile(values, 50) * scale,
        "p99": percentile(values, 99) * scale,
    }


def round_summary(rounds, scale: float = 1.0) -> dict:
    """Percentiles of a run made of rounds: each percentile is the median
    over rounds of that round's own percentile, so a slowdown of the host
    during one round moves it little; ``n`` counts every sample."""
    per_round = [summary(samples, scale) for samples in rounds if samples]
    if not per_round:
        return summary([])
    return {
        "n": sum(r["n"] for r in per_round),
        "rounds": len(per_round),
        "p50": median([r["p50"] for r in per_round]),
        "p99": median([r["p99"] for r in per_round]),
    }


def median(values) -> float:
    return statistics.median(values)


class Tally:
    """Operations attempted and failed, with a reason per failure kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def add(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.reasons[reason] = self.reasons.get(reason, 0) + failed

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def record(result: dict, tally: Tally, path: Path) -> bool:
    """Append ``result`` to the JSON-lines ledger at ``path`` only when the
    run had no failure; a run with any wrong or refused operation is never
    kept as a baseline.  Returns whether it was recorded."""
    if not tally.correct:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(result, sort_keys=True) + "\n")
    return True
