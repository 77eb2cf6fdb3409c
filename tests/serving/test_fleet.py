"""Multi-process serving fleet over one mapped snapshot.

A 2-worker fleet must be answer-identical and fingerprint-identical to
single-process serving: the workers each map the same snapshot, so any
divergence is a routing or serialization bug.  Spawned processes are
slow to start, so the suite builds one small snapshot and one fleet per
module and drives every request shape through it.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import save_ct_index_binary
from repro.exceptions import ConfigurationError
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.serving import FleetError, QueryEngine, ServingFleet
from repro.serving.fleet import BatchTicket, balanced_tasks
from repro.storage.binary import load_ct_index_binary


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    cfg = CorePeripheryConfig(core_size=25, community_count=4, fringe_size=75)
    graph = core_periphery_graph(cfg, seed=41)
    index = CTIndex.build(graph, 5, backend="flat")
    path = tmp_path_factory.mktemp("fleet") / "index.ctsnap"
    save_ct_index_binary(index, path)
    return graph, path


@pytest.fixture(scope="module")
def fleet(snapshot):
    _, path = snapshot
    with ServingFleet(path, workers=2) as running:
        yield running


@pytest.fixture(scope="module")
def baseline(snapshot):
    _, path = snapshot
    return QueryEngine(load_ct_index_binary(path, mmap=True))


class TestIdentity:
    def test_verify_matches_parent_fingerprint(self, fleet):
        digest = fleet.verify()
        assert isinstance(digest, str) and len(digest) == 64
        assert set(fleet.fingerprints()) == {digest}

    def test_single_queries_match_baseline(self, fleet, baseline, snapshot):
        graph, _ = snapshot
        rng = random.Random(1)
        for _ in range(60):
            s, t = rng.randrange(graph.n), rng.randrange(graph.n)
            assert fleet.query(s, t) == baseline.query(s, t), (s, t)

    def test_batch_matches_baseline(self, fleet, baseline, snapshot):
        graph, _ = snapshot
        rng = random.Random(2)
        pairs = [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(300)]
        assert fleet.query_batch(pairs) == baseline.query_batch(pairs)

    def test_from_matches_baseline(self, fleet, baseline, snapshot):
        graph, _ = snapshot
        for s in (0, graph.n // 2, graph.n - 1):
            assert fleet.query_from(s, range(graph.n)) == baseline.query_from(
                s, range(graph.n)
            )

    def test_pipelined_batches_preserve_order(self, fleet, baseline, snapshot):
        graph, _ = snapshot
        rng = random.Random(3)
        batches = [
            [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(50)]
            for _ in range(6)
        ]
        tickets = [fleet.submit_batch(batch) for batch in batches]
        assert all(isinstance(t, BatchTicket) for t in tickets)
        for batch, ticket in zip(batches, tickets):
            assert fleet.gather(ticket) == baseline.query_batch(batch)


class TestTopology:
    def test_both_workers_receive_traffic(self, fleet, snapshot):
        graph, _ = snapshot
        rng = random.Random(4)
        fleet.query_batch(
            [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(400)]
        )
        per_worker = [stats["queries"] for stats in fleet.stats()]
        assert len(per_worker) == 2
        assert all(count > 0 for count in per_worker)

    def test_resident_kb_per_worker(self, fleet):
        rss = fleet.resident_kb()
        assert len(rss) == 2
        assert all(kb > 0 for kb in rss)

    def test_parent_keeps_routing_index(self, fleet, snapshot):
        graph, _ = snapshot
        assert fleet.index.graph.n == graph.n


class TestLifecycle:
    def test_workers_must_be_positive(self, snapshot):
        _, path = snapshot
        with pytest.raises(ConfigurationError, match="worker"):
            ServingFleet(path, workers=0)

    def test_missing_snapshot_fails_before_spawning(self, tmp_path):
        from repro.exceptions import SerializationError

        with pytest.raises(SerializationError):
            ServingFleet(tmp_path / "missing.ctsnap", workers=1)

    def test_shutdown_is_graceful_and_idempotent(self, snapshot):
        _, path = snapshot
        fleet = ServingFleet(path, workers=1)
        assert fleet.query(0, 1) == fleet.query(0, 1)
        processes = list(fleet._processes)
        fleet.shutdown()
        assert all(not p.is_alive() for p in processes)
        assert all(p.exitcode == 0 for p in processes)
        fleet.shutdown()  # second call is a no-op

    def test_queries_after_shutdown_raise(self, snapshot):
        _, path = snapshot
        fleet = ServingFleet(path, workers=1)
        fleet.shutdown()
        with pytest.raises(FleetError):
            fleet.query(0, 1)


class TestBalancedTasks:
    def test_every_item_assigned_exactly_once(self):
        sized = [(i, (i * 7) % 13 + 1) for i in range(50)]
        tasks = balanced_tasks(sized, workers=3)
        flat = sorted(item for task in tasks for item in task)
        assert flat == list(range(50))

    def test_skewed_sizes_are_spread(self):
        # One giant item plus many small ones: the giant must sit alone
        # in the heaviest task, not drag small items with it.
        sized = [("giant", 1000)] + [(f"s{i}", 1) for i in range(20)]
        tasks = balanced_tasks(sized, workers=4)
        heaviest = tasks[0]
        assert heaviest == ["giant"]

    def test_deterministic(self):
        sized = [(i, (i * 31) % 17 + 1) for i in range(40)]
        assert balanced_tasks(sized, 4) == balanced_tasks(sized, 4)

    def test_task_count_bounded(self):
        sized = [(i, 1) for i in range(1000)]
        tasks = balanced_tasks(sized, workers=2)
        assert len(tasks) == 2

    def test_empty(self):
        assert balanced_tasks([], 4) == []
