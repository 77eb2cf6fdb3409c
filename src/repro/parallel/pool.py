"""Worker-count resolution and start-method selection for the build pool.

The shared-memory PSL engine (:mod:`repro.parallel.shm`) is the only
multiprocess build path; these two helpers are the parts of its setup
that do not need NumPy.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.exceptions import IndexConstructionError


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument to a concrete process count.

    ``None`` or ``1`` mean serial (no pool); ``0`` means one worker per
    CPU; any other positive value is taken literally.  Negative counts
    are rejected.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise IndexConstructionError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


#: Environment override for the start method (``"fork"`` / ``"spawn"``
#: / ``"forkserver"``); the test suite parametrizes spawn-safety of the
#: shared-memory engine through it.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context the build pool runs under.

    Prefers ``fork``, which starts workers fastest; falls back to the
    platform default elsewhere.  The :data:`START_METHOD_ENV`
    environment variable forces a specific method (workers receive all
    state through queues and shared blocks, so every method is
    semantically identical — the override exists so tests can pin spawn
    behaviour on fork platforms).
    """
    forced = os.environ.get(START_METHOD_ENV)
    if forced:
        if forced not in multiprocessing.get_all_start_methods():
            raise IndexConstructionError(
                f"{START_METHOD_ENV}={forced!r} is not a start method on "
                f"this platform; known: {multiprocessing.get_all_start_methods()}"
            )
        return multiprocessing.get_context(forced)
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
