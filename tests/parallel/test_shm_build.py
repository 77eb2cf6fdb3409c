"""Shared-memory PSL rounds: identity, scope, fallback, and cleanup.

Four contracts pin :mod:`repro.parallel.shm`:

* **identity** — any worker count, under either start method, commits
  exactly the serial labels (fingerprint-identical indexes);
* **scope** — only the vectorized PSL rounds start a pool; a
  ``workers=2`` build with the default PLL core starts no process;
* **fallback** — without NumPy the build runs the serial python rounds
  and still matches the serial bytes;
* **cleanup** — no ``/dev/shm`` block survives a build, whether it
  finishes, fails on a budget, or loses a worker mid-round.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

pytest.importorskip("numpy")

import repro.kernels
from repro.bench.memory import child_peak_rss_mb, reset_child_peak_rss
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.exceptions import IndexConstructionError, OverMemoryError
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.graphs.generators.power_law import barabasi_albert_graph
from repro.labeling.base import MemoryBudget
from repro.labeling.ordering import degree_order
from repro.labeling.psl import build_psl
from repro.parallel.pool import START_METHOD_ENV
from repro.parallel.shm import SHM_PREFIX, ShmBuildPool, run_shm_rounds


def _shm_blocks() -> list[str]:
    try:
        return [f for f in os.listdir("/dev/shm") if f.startswith(SHM_PREFIX)]
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(scope="module")
def scale_free():
    """Unweighted scale-free graph, large enough to vectorize (n >= 64)."""
    return barabasi_albert_graph(220, 3, seed=41)


@pytest.fixture(scope="module")
def cp_graph():
    cfg = CorePeripheryConfig(core_size=40, community_count=6, fringe_size=160)
    return core_periphery_graph(cfg, seed=31)


@pytest.fixture(autouse=True)
def no_leaked_blocks():
    assert _shm_blocks() == []
    yield
    assert _shm_blocks() == [], "a test leaked /dev/shm blocks"


def _entries(result):
    return [result.labels.label_entries(v) for v in range(result.labels.n)]


class TestPSLRoundIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial_under_fork(self, scale_free, workers, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "fork")
        serial = build_psl(scale_free, kernel="numpy", backend="flat")
        parallel = build_psl(
            scale_free, workers=workers, kernel="numpy", backend="flat"
        )
        assert parallel.rounds == serial.rounds
        assert _entries(parallel) == _entries(serial)

    def test_workers_match_serial_under_spawn(self, scale_free, monkeypatch):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable")
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        serial = build_psl(scale_free, kernel="numpy", backend="flat")
        parallel = build_psl(scale_free, workers=2, kernel="numpy", backend="flat")
        assert _entries(parallel) == _entries(serial)

    def test_matches_python_rounds(self, scale_free):
        vectorized = build_psl(scale_free, workers=2, kernel="numpy", backend="flat")
        python = build_psl(scale_free, kernel="python")
        assert _entries(vectorized) == _entries(python)


class TestCTIndexIdentity:
    def test_fingerprint_identical_across_worker_counts(self, cp_graph):
        reference = None
        for workers in (1, 2, 4):
            # Bandwidth 0 keeps the core unweighted, so the PSL rounds run.
            index = CTIndex.build(
                cp_graph,
                bandwidth=0,
                workers=workers,
                backend="flat",
                core_backend="psl",
            )
            fingerprint = index_fingerprint(index)
            if reference is None:
                reference = fingerprint
            assert fingerprint == reference


class TestPoolScope:
    def test_pll_core_build_starts_no_worker(self, cp_graph, monkeypatch):
        started = []
        original_start = multiprocessing.process.BaseProcess.start

        def recording_start(process):
            started.append(process.name)
            return original_start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
        serial = CTIndex.build(cp_graph, bandwidth=4)
        parallel = CTIndex.build(cp_graph, bandwidth=4, workers=2)
        assert started == []
        assert _shm_blocks() == []
        assert index_fingerprint(parallel) == index_fingerprint(serial)
        # Control: the same hook does see the PSL rounds' pool.
        CTIndex.build(
            cp_graph,
            bandwidth=0,
            core_backend="psl",
            workers=2,
            backend="flat",
            kernel="numpy",
        )
        assert len(started) == 2


class TestNumpyAbsentFallback:
    def test_falls_back_to_serial_rounds(self, cp_graph, monkeypatch):
        expected = index_fingerprint(
            CTIndex.build(cp_graph, bandwidth=0, core_backend="psl")
        )
        monkeypatch.setattr(repro.kernels, "_NUMPY_STATE", False)
        assert not repro.kernels.numpy_available()
        degraded = CTIndex.build(cp_graph, bandwidth=0, core_backend="psl", workers=2)
        assert index_fingerprint(degraded) == expected


class TestCleanup:
    def test_normal_exit_leaves_nothing(self, scale_free):
        build_psl(scale_free, workers=2, kernel="numpy", backend="flat")
        assert _shm_blocks() == []

    def test_build_failure_leaves_nothing(self, scale_free):
        with pytest.raises(OverMemoryError):
            build_psl(
                scale_free,
                workers=2,
                kernel="numpy",
                backend="flat",
                budget=MemoryBudget(limit_bytes=64),
            )
        assert _shm_blocks() == []

    def test_worker_death_mid_round_raises_and_cleans(self, scale_free):
        order = degree_order(scale_free)
        rank = [0] * scale_free.n
        for r, v in enumerate(order):
            rank[v] = r
        pool = ShmBuildPool(2)
        try:
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            pool._procs[1].join(timeout=5.0)
            with pytest.raises(IndexConstructionError, match="died|exited"):
                run_shm_rounds(
                    scale_free,
                    rank,
                    order,
                    pool=pool,
                    budget=MemoryBudget.unlimited(),
                    budget_exempt=frozenset(),
                )
        finally:
            pool.shutdown()
        assert _shm_blocks() == []


class TestChildRSSAccounting:
    def test_exit_reports_feed_child_peak(self, scale_free):
        reset_child_peak_rss()
        assert child_peak_rss_mb() == 0.0
        # build_psl owns its pool; shutting it down reports each worker's RSS.
        build_psl(scale_free, workers=2, kernel="numpy", backend="flat")
        assert child_peak_rss_mb() > 0.0
        reset_child_peak_rss()
        assert child_peak_rss_mb() == 0.0
