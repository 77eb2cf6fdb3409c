"""Multiprocess index construction.

One construction phase runs in parallel: the level-synchronous rounds
of the vectorized PSL core labeler (:func:`repro.labeling.psl.build_psl`
with ``kernel="numpy"``).  Each round reads only labels committed in
strictly earlier rounds, so it partitions by destination-vertex range
and the output stays byte-identical to a serial build.

* :mod:`repro.parallel.shm` — the shared-memory engine: one persistent
  worker pool per PSL build, CSR label state and frontiers in
  ``multiprocessing.shared_memory``, compact per-range deltas instead of
  pickled snapshots.  Requires NumPy, so its names are re-exported
  lazily here;
* :mod:`repro.parallel.pool` — worker-count resolution and the
  multiprocessing start method.

Entry points: ``build_psl(graph, workers=N)``, and
``CTIndex.build(graph, 0, core_backend="psl", workers=N)`` (the PSL
rounds only run on an unweighted core, i.e. bandwidth 0).  ``workers=0``
means one worker per CPU.  Everything else in the build — reduction,
decomposition, forest labels, PLL — is serial.
"""

from repro.parallel.pool import START_METHOD_ENV, pool_context, resolve_workers

_SHM_NAMES = (
    "SHM_PREFIX",
    "ShmArena",
    "ShmBuildPool",
    "WorkerAttachments",
    "run_shm_rounds",
)

__all__ = [
    "START_METHOD_ENV",
    "pool_context",
    "resolve_workers",
    *_SHM_NAMES,
]


def __getattr__(name):
    # repro.parallel.shm imports NumPy at module import time; deferring
    # its re-exports keeps `import repro.parallel` working without it.
    if name in _SHM_NAMES:
        from repro.parallel import shm

        return getattr(shm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
