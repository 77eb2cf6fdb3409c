"""Dynamic-graph benchmark: update throughput and query latency under churn.

``dynamic_bench_result`` wraps a built CT-Index in a
:class:`~repro.dynamic.DeltaOverlayIndex` and replays seeded batches of
random edge insertions/deletions, timing the mutation stream
(updates/s) and a query workload after every batch (latency under a
growing patch).  **Every answer in every batch is verified against
BFS/Dijkstra ground truth on the materialized current graph before any
number is recorded** — a wrong answer raises
:class:`~repro.exceptions.ReproError` instead of becoming a data point.
The run ends with a rebuild-verify-swap cycle
(:class:`~repro.dynamic.BackgroundReindexer`); the swapped-in base must
answer ground truth *and* match the canonical fingerprint of an
independent rebuild of the same snapshot, pinning the
determinism guarantee under churn.

``run_dynamic_bench`` sweeps the registry datasets and appends one
schema-1 entry per graph to ``BENCH_dynamic.json``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path

from repro.bench.datasets import load_dataset
from repro.bench.reporting import format_table
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.dynamic import BackgroundReindexer, DeltaOverlayIndex
from repro.exceptions import ReproError
from repro.graphs.graph import Graph
from repro.graphs.traversal import single_source_distances

#: Default sweep (matches the other bench drivers' headline graph).
DEFAULT_DATASETS = ("fb",)

#: Default artifact path, relative to the working directory.
BENCH_DYNAMIC_PATH = "BENCH_dynamic.json"

#: Version of the ``BENCH_dynamic.json`` document this module writes.
BENCH_DYNAMIC_SCHEMA = 1

DEFAULT_BATCHES = 6
DEFAULT_BATCH_SIZE = 24
DEFAULT_QUERIES_PER_BATCH = 200


@dataclasses.dataclass
class DynamicBenchResult:
    """One graph's update-throughput / latency-under-churn measurement."""

    name: str
    n: int
    m: int
    bandwidth: int
    batches: int
    batch_size: int
    queries_per_batch: int
    seed: int
    mutations_applied: int
    update_seconds: float
    query_latency_us: dict
    rebuild: dict
    verified_answers: int

    @property
    def updates_per_second(self) -> float:
        if self.update_seconds <= 0:
            return 0.0
        return self.mutations_applied / self.update_seconds

    def entry(self) -> dict:
        """JSON-ready record for ``BENCH_dynamic.json`` (schema 1)."""
        return {
            "schema": BENCH_DYNAMIC_SCHEMA,
            "dataset": self.name,
            "n": self.n,
            "m": self.m,
            "bandwidth": self.bandwidth,
            "batches": self.batches,
            "batch_size": self.batch_size,
            "queries_per_batch": self.queries_per_batch,
            "seed": self.seed,
            "mutations_applied": self.mutations_applied,
            "update_seconds": round(self.update_seconds, 6),
            "updates_per_second": round(self.updates_per_second, 1),
            "query_latency_us": self.query_latency_us,
            "rebuild": self.rebuild,
            "verified_answers": self.verified_answers,
            "answers_verified": True,
        }

    def row(self) -> dict:
        """Flat row for table rendering."""
        return {
            "dataset": self.name,
            "n": self.n,
            "mutations": self.mutations_applied,
            "upd_per_s": round(self.updates_per_second, 1),
            "q_p50_us": self.query_latency_us["p50"],
            "q_p99_us": self.query_latency_us["p99"],
            "rebuild_s": self.rebuild["build_seconds"],
            "replayed": self.rebuild["replayed_ops"],
            "verified": self.verified_answers,
        }


def _percentile(latencies_sorted: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not latencies_sorted:
        return 0.0
    rank = min(len(latencies_sorted) - 1, int(q * len(latencies_sorted)))
    return latencies_sorted[rank]


class _ChurnStream:
    """Seeded random insert/delete generator over a mutable edge set."""

    def __init__(self, graph: Graph, seed: int) -> None:
        self.rng = random.Random(seed)
        self.n = graph.n
        self.edges = {(u, v) for u, v, _ in graph.edges()}

    def next_op(self) -> tuple[str, int, int, int | None]:
        rng = self.rng
        # Removals are only possible while edges remain; keep the mix
        # near 50/50 without ever emitting an invalid op.
        if self.edges and (rng.random() < 0.5 or self._full()):
            u, v = rng.choice(sorted(self.edges))
            self.edges.discard((u, v))
            return ("remove", u, v, None)
        while True:
            u, v = rng.randrange(self.n), rng.randrange(self.n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key not in self.edges:
                self.edges.add(key)
                return ("add", key[0], key[1], 1)

    def _full(self) -> bool:
        return len(self.edges) >= self.n * (self.n - 1) // 2

    def batch(self, size: int) -> list[tuple[str, int, int, int | None]]:
        return [self.next_op() for _ in range(size)]


def dynamic_bench_result(
    graph: Graph,
    bandwidth: int,
    *,
    name: str = "graph",
    batches: int = DEFAULT_BATCHES,
    batch_size: int = DEFAULT_BATCH_SIZE,
    queries_per_batch: int = DEFAULT_QUERIES_PER_BATCH,
    seed: int = 0,
) -> DynamicBenchResult:
    """Measure one graph under churn; raises on any wrong answer."""
    base = CTIndex.build(graph, bandwidth, backend="flat")
    overlay = DeltaOverlayIndex(base)
    stream = _ChurnStream(graph, seed)
    rng = random.Random(seed + 1)

    mutations = 0
    update_seconds = 0.0
    latencies: list[float] = []
    verified = 0

    for _ in range(batches):
        ops = stream.batch(batch_size)
        started = time.perf_counter()
        mutations += overlay.apply(ops)
        update_seconds += time.perf_counter() - started

        pairs = [
            (rng.randrange(graph.n), rng.randrange(graph.n))
            for _ in range(queries_per_batch)
        ]
        answers = []
        for s, t in pairs:
            started = time.perf_counter()
            answers.append(overlay.distance(s, t))
            latencies.append(time.perf_counter() - started)

        # Verify this batch's answers against ground truth on the
        # *current* graph before recording anything.
        current = overlay.materialize_current()
        truth_cache: dict[int, list] = {}
        for (s, t), got in zip(pairs, answers):
            truth = truth_cache.get(s)
            if truth is None:
                truth = truth_cache[s] = single_source_distances(current, s)
            if got != truth[t]:
                raise ReproError(
                    f"overlay answer diverges from ground truth on "
                    f"{name!r}: distance({s}, {t}) = {got!r}, expected "
                    f"{truth[t]!r} — refusing to record benchmark numbers"
                )
            verified += 1

    # Rebuild-verify-swap, then pin determinism: an independent
    # rebuild of the same snapshot must produce the same fingerprint.
    snapshot_graph = overlay.materialize_current()
    reindexer = BackgroundReindexer(overlay)
    result = reindexer.rebuild_once()
    independent = CTIndex.build(
        snapshot_graph, bandwidth, backend=base.storage_backend
    )
    if index_fingerprint(overlay.base) != index_fingerprint(independent):
        raise ReproError(
            f"swapped-in index fingerprint diverges from an independent "
            f"rebuild on {name!r} — determinism under churn is broken"
        )
    post_pairs = [
        (rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(64)
    ]
    truth_cache = {}
    for s, t in post_pairs:
        truth = truth_cache.get(s)
        if truth is None:
            truth = truth_cache[s] = single_source_distances(snapshot_graph, s)
        got = overlay.distance(s, t)
        if got != truth[t]:
            raise ReproError(
                f"post-swap answer diverges from ground truth on {name!r}: "
                f"distance({s}, {t}) = {got!r}, expected {truth[t]!r}"
            )
        verified += 1

    latencies.sort()
    return DynamicBenchResult(
        name=name,
        n=graph.n,
        m=graph.m,
        bandwidth=bandwidth,
        batches=batches,
        batch_size=batch_size,
        queries_per_batch=queries_per_batch,
        seed=seed,
        mutations_applied=mutations,
        update_seconds=update_seconds,
        query_latency_us={
            "p50": round(_percentile(latencies, 0.50) * 1e6, 2),
            "p95": round(_percentile(latencies, 0.95) * 1e6, 2),
            "p99": round(_percentile(latencies, 0.99) * 1e6, 2),
            "max": round((latencies[-1] if latencies else 0.0) * 1e6, 2),
        },
        rebuild=result.summary(),
        verified_answers=verified,
    )


def record_dynamic_entry(result: DynamicBenchResult, path=BENCH_DYNAMIC_PATH) -> dict:
    """Append ``result`` to the ``BENCH_dynamic.json`` history document.

    The document is ``{"schema": 1, "entries": [...]}``; a missing or
    corrupt file starts a fresh history rather than failing the bench.
    Returns the appended entry.
    """
    path = Path(path)
    document: dict = {"schema": BENCH_DYNAMIC_SCHEMA, "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, dict) and isinstance(loaded.get("entries"), list):
                document = loaded
                document["schema"] = BENCH_DYNAMIC_SCHEMA
        except (OSError, json.JSONDecodeError):
            pass
    entry = result.entry()
    entry["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    document["entries"].append(entry)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return entry


def run_dynamic_bench(
    datasets=None,
    bandwidth: int = 20,
    *,
    batches: int = DEFAULT_BATCHES,
    batch_size: int = DEFAULT_BATCH_SIZE,
    queries: int = DEFAULT_QUERIES_PER_BATCH,
    seed: int = 0,
    output=BENCH_DYNAMIC_PATH,
) -> tuple[list[dict], str]:
    """Sweep ``datasets`` (default :data:`DEFAULT_DATASETS`), record entries.

    Returns ``(rows, text)`` like the other experiment drivers.
    """
    names = list(datasets) if datasets is not None else list(DEFAULT_DATASETS)
    rows: list[dict] = []
    for name in names:
        graph = load_dataset(name)
        result = dynamic_bench_result(
            graph,
            bandwidth,
            name=name,
            batches=batches,
            batch_size=batch_size,
            queries_per_batch=queries,
            seed=seed,
        )
        if output is not None:
            record_dynamic_entry(result, output)
        rows.append(result.row())
    text = format_table(
        rows,
        [
            "dataset",
            "n",
            "mutations",
            "upd_per_s",
            "q_p50_us",
            "q_p99_us",
            "rebuild_s",
            "replayed",
            "verified",
        ],
        title=f"dynamic-bench — CT-{bandwidth} updates + queries under churn",
    )
    return rows, text


__all__ = [
    "BENCH_DYNAMIC_PATH",
    "BENCH_DYNAMIC_SCHEMA",
    "DynamicBenchResult",
    "dynamic_bench_result",
    "record_dynamic_entry",
    "run_dynamic_bench",
]
