"""Observability overhead benchmark (the ``repro obs-bench`` driver).

Instrumentation that changes what it measures is worse than none, so
this driver quantifies the cost of :mod:`repro.obs` on the serving hot
path:

1. build one CT-Index and replay the same seeded query stream through a
   :class:`~repro.serving.engine.QueryEngine` twice — once with
   observability disabled (the production default: every ``span()``
   call returns the shared no-op) and once under
   :func:`repro.obs.observe` (per-query spans recorded, counters live);
2. verify the two passes return **identical answers** — observability
   must never change a distance;
3. run one fully traced build and fold its spans into the per-phase
   breakdown (MDE, core labeling, forest labeling, compaction, ...).

``record_obs_entry`` appends the measurement to ``BENCH_obs.json``
(same ``{"schema": 1, "entries": [...]}`` shape as the build and
storage artifacts), so the overhead has a history — a regression that
makes the disabled path expensive shows up as a trend break, not a
vibe.

Timing uses the best of ``repeats`` passes per configuration, which
discards scheduler noise; the enabled pass re-installs a fresh tracer
every repeat so span accumulation does not grow the working set across
repeats.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import repro.obs as obs
from repro.bench.datasets import load_dataset
from repro.bench.reporting import format_table
from repro.bench.workloads import random_pairs
from repro.core.ct_index import CTIndex
from repro.exceptions import ReproError
from repro.graphs.graph import Graph
from repro.obs.export import summarize_trace
from repro.obs.tracing import Tracer
from repro.serving.engine import QueryEngine

#: Default artifact path, relative to the working directory.
BENCH_OBS_PATH = "BENCH_obs.json"

#: Overhead (fractional) the disabled-vs-enabled comparison is allowed
#: before :func:`obs_bench_result` flags the row; the acceptance bar for
#: the *disabled* path is the CI smoke step, which compares against a
#: build with the instrumentation short-circuited.
OVERHEAD_BUDGET = 0.05


@dataclasses.dataclass
class ObsBenchResult:
    """One graph's observability-overhead measurement."""

    name: str
    n: int
    m: int
    bandwidth: int
    #: One row per configuration (``disabled`` / ``enabled``).
    rows: list[dict]
    #: Per-phase breakdown of one traced build (name, count, total_ms).
    phases: list[dict]
    #: Both query passes returned the same answers.
    identical: bool
    #: The query kernel the measured index resolved to.
    kernel: str = "python"

    @property
    def overhead(self) -> float:
        """Fractional slowdown of the enabled pass over the disabled one."""
        disabled = next(r for r in self.rows if r["config"] == "disabled")
        enabled = next(r for r in self.rows if r["config"] == "enabled")
        if not disabled["mean_us"]:
            return 0.0
        return enabled["mean_us"] / disabled["mean_us"] - 1.0

    def entry(self) -> dict:
        """JSON-ready record for ``BENCH_obs.json``."""
        return {
            "dataset": self.name,
            "n": self.n,
            "m": self.m,
            "bandwidth": self.bandwidth,
            "rows": self.rows,
            "phases": self.phases,
            "overhead_pct": round(self.overhead * 100, 2),
            "identical": self.identical,
            "kernel": self.kernel,
        }


def _time_stream(engine: QueryEngine, pairs, repeats: int) -> tuple[float, list]:
    """Best-of-``repeats`` wall time for the stream; returns answers too."""
    answers = [engine.query(s, t) for s, t in pairs]  # warm caches once
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for s, t in pairs:
            engine.query(s, t)
        best = min(best, time.perf_counter() - started)
    return best, answers


def obs_bench_result(
    graph: Graph,
    bandwidth: int,
    *,
    name: str = "graph",
    queries: int = 2000,
    seed: int = 12345,
    repeats: int = 3,
    kernel: str = "auto",
) -> ObsBenchResult:
    """Measure observability overhead on ``graph``'s serving hot path.

    ``kernel`` pins the query kernel of the measured index
    (``"auto"`` | ``"numpy"`` | ``"python"``, see :mod:`repro.kernels`)
    so overhead numbers are attributable to one code path.

    Raises :class:`ReproError` if the instrumented pass returns a
    different answer than the plain pass for any query — that would be
    an observability bug, not a benchmark data point.
    """
    index = CTIndex.build(graph, bandwidth, backend="flat", kernel=kernel)
    workload = random_pairs(graph, queries, seed=seed)
    pairs = workload.pairs

    engine = QueryEngine(index, cache_capacity=None)
    disabled_s, answers_plain = _time_stream(engine, pairs, repeats)

    engine.reset_stats()
    best_enabled = float("inf")
    answers_traced: list = []
    for _ in range(repeats):
        with obs.observe(Tracer()):
            started = time.perf_counter()
            answers_traced = [engine.query(s, t) for s, t in pairs]
            best_enabled = min(best_enabled, time.perf_counter() - started)
    enabled_s = best_enabled

    identical = answers_plain == answers_traced
    if not identical:
        raise ReproError(
            f"observability changed answers on {name!r}: the traced query "
            "pass disagrees with the plain pass"
        )

    per_query = 1e6 / max(len(pairs), 1)
    rows = [
        {
            "config": "disabled",
            "queries": len(pairs),
            "total_ms": round(disabled_s * 1e3, 3),
            "mean_us": round(disabled_s * per_query, 3),
        },
        {
            "config": "enabled",
            "queries": len(pairs),
            "total_ms": round(enabled_s * 1e3, 3),
            "mean_us": round(enabled_s * per_query, 3),
        },
    ]

    with obs.observe(Tracer()) as tracer:
        CTIndex.build(graph, bandwidth, backend="flat")
    phases = summarize_trace([span.as_record() for span in tracer.finished])

    return ObsBenchResult(
        name=name,
        n=graph.n,
        m=graph.m,
        bandwidth=bandwidth,
        rows=rows,
        phases=phases,
        identical=identical,
        kernel=index.kernel,
    )


def record_obs_entry(result: ObsBenchResult, path=BENCH_OBS_PATH) -> dict:
    """Append ``result`` to the ``BENCH_obs.json`` history document.

    A missing or corrupt file starts a fresh history.
    """
    path = Path(path)
    document = {"schema": 1, "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, dict) and isinstance(loaded.get("entries"), list):
                document = loaded
        except (OSError, json.JSONDecodeError):
            pass
    entry = result.entry()
    entry["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    document["entries"].append(entry)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return entry


def run_obs_bench(
    datasets=None,
    bandwidth: int = 20,
    *,
    queries: int = 2000,
    output=BENCH_OBS_PATH,
) -> tuple[list[dict], str]:
    """Sweep ``datasets`` (default: the smallest registry graph) and record.

    Returns ``(rows, text)`` like the other experiment drivers.
    """
    names = list(datasets) if datasets is not None else ["talk"]
    rows: list[dict] = []
    for name in names:
        graph = load_dataset(name)
        result = obs_bench_result(
            graph, bandwidth, name=name, queries=queries
        )
        if output is not None:
            record_obs_entry(result, output)
        for row in result.rows:
            rows.append(
                {
                    "dataset": name,
                    **row,
                    "overhead_pct": round(result.overhead * 100, 2),
                    "identical": result.identical,
                }
            )
    text = format_table(
        rows,
        ["dataset", "config", "queries", "total_ms", "mean_us", "overhead_pct", "identical"],
        title=f"obs-bench — tracing disabled vs enabled on the CT-{bandwidth} serving path",
    )
    return rows, text


__all__ = [
    "BENCH_OBS_PATH",
    "OVERHEAD_BUDGET",
    "ObsBenchResult",
    "obs_bench_result",
    "record_obs_entry",
    "run_obs_bench",
]
