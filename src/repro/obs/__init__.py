"""Observability: metrics registry, structured tracing, profiling hooks.

This package is the substrate every performance-facing layer reports
through:

* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`LatencyHistogram` primitives;
* :mod:`repro.obs.registry` — the process-wide
  :class:`MetricsRegistry` (get-or-create, labeled, Prometheus-text
  export);
* :mod:`repro.obs.tracing` — span-based tracing with a context-manager
  API and JSON-lines export;
* :mod:`repro.obs.profiling` — cProfile behind a context manager, for
  the CLI ``--profile`` flags.

**Everything is off by default and compiles to a no-op.**  The
module-level enabled flag gates the instrumentation threaded through
the hot paths (MDE elimination, PSL levels, forest labeling, CSR
compaction, snapshot load, per-query serving spans): while disabled, a
:func:`span` call returns one shared no-op object and counter updates
are skipped behind a single :func:`enabled` predicate per phase.
``repro obs-bench`` measures the residual overhead and records it into
``BENCH_obs.json``.

Turning it on::

    import repro.obs as obs

    with obs.observe() as tracer:          # tracing + counters for a block
        index = repro.build(graph, bandwidth=16)
    obs.write_trace(tracer, "build.trace.jsonl")
    print(obs.registry().render_prometheus())

or imperatively (the CLI flags do this)::

    obs.enable()
    ... work ...
    tracer = obs.disable()
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.export import (
    format_trace_tree,
    read_trace,
    summarize_trace,
    write_trace,
)
from repro.obs.metrics import BUCKET_EDGES, Counter, Gauge, LatencyHistogram
from repro.obs.profiling import ProfileReport, profile_block
from repro.obs.registry import MetricsRegistry, registry
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)

#: Module-level switch for the counter/gauge instrumentation in the hot
#: paths.  Span emission is additionally gated on a tracer being
#: installed (see :mod:`repro.obs.tracing`).
_ENABLED = False


def enabled() -> bool:
    """True while observability instrumentation is switched on."""
    return _ENABLED


def enable(tracer: Tracer | None = None) -> Tracer:
    """Switch instrumentation on and install a tracer; returns it."""
    global _ENABLED
    _ENABLED = True
    return enable_tracing(tracer)


def disable() -> Tracer | None:
    """Switch instrumentation off; returns the tracer with its spans."""
    global _ENABLED
    _ENABLED = False
    return disable_tracing()


@contextmanager
def observe(tracer: Tracer | None = None):
    """Enable instrumentation for one block, restoring state after.

    Yields the active :class:`Tracer`.  A tracer already installed via
    :func:`repro.obs.tracing.capture` (or :func:`enable`) is reused, so
    nesting the two composes instead of shadowing.
    """
    global _ENABLED
    previous_flag = _ENABLED
    previous_tracer = current_tracer()
    installed = enable(tracer if tracer is not None else previous_tracer)
    try:
        yield installed
    finally:
        _ENABLED = previous_flag
        if previous_tracer is None:
            disable_tracing()
        else:
            enable_tracing(previous_tracer)


__all__ = [
    "BUCKET_EDGES",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ProfileReport",
    "Span",
    "Tracer",
    "current_tracer",
    "disable",
    "enable",
    "enabled",
    "format_trace_tree",
    "observe",
    "profile_block",
    "read_trace",
    "registry",
    "span",
    "summarize_trace",
    "tracing_enabled",
    "write_trace",
]
