"""Query serving layer: batch-aware engine, process fleet, network front-end.

The library's indexes are per-call oracles; this package turns them
into an instrumented service, layer by layer:

* :class:`QueryEngine` (:mod:`repro.serving.engine`) accepts single,
  pairwise-batch, and one-to-many-batch requests over any
  :class:`~repro.labeling.base.DistanceIndex`, optionally fronts it
  with a :class:`~repro.caching.CachedDistanceIndex`, and keeps
  latency histograms, request counters, and (for CT-Indexes) per-case
  and core-probe statistics that :meth:`QueryEngine.stats_snapshot`
  exports for the bench harness and the ``repro serve-bench`` CLI
  command.

* :class:`ServingFleet` (:mod:`repro.serving.fleet`) scales the engine
  out to N worker processes that all memory-map one binary snapshot —
  shared label pages, tree-affinity request routing, verifiable
  fingerprint identity — measured by ``repro fleet-bench``.

* :class:`DistanceServer` (:mod:`repro.serving.server`, experimental)
  puts either behind an asyncio HTTP front-end (``repro serve``):
  single-pair requests micro-batched into ``query_batch`` calls,
  bounded-queue admission control with 429 backpressure, graceful
  drain on SIGTERM, ``/metrics`` + ``/healthz``, and a per-run
  ``artifact.json`` / ``eval_history.jsonl`` audit record
  (:mod:`repro.serving.audit`) — load-tested by ``repro server-bench``
  with :class:`~repro.serving.client.ServeClient`.

Every serving-tier error derives from :class:`ServingError`.
"""

from repro.obs.metrics import LatencyHistogram
from repro.serving.client import ServeClient, ServeResponseError
from repro.serving.engine import QueryEngine
from repro.serving.errors import AuditError, ServingError
from repro.serving.fleet import FleetError, ServingFleet
from repro.serving.server import DistanceServer, ServerConfig, serve_forever

__all__ = [
    "AuditError",
    "DistanceServer",
    "FleetError",
    "LatencyHistogram",
    "QueryEngine",
    "ServeClient",
    "ServeResponseError",
    "ServerConfig",
    "ServingError",
    "ServingFleet",
    "serve_forever",
]
