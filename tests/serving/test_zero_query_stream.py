"""A zero-query stream must degrade to zeros, never to ZeroDivisionError.

Serving dashboards and benchmark drivers see empty streams in practice
(a fresh engine polled before traffic, ``--queries 0`` smoke runs, an
empty graph handed to a workload generator).  Every averaged statistic
on those paths must report 0.0 instead of dividing by the query count.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import distinct_random_pairs, random_pairs, skewed_pairs
from repro.cli.main import main
from repro.core.ct_index import CTIndex
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.random_graphs import gnp_graph
from repro.graphs.io import write_edge_list
from repro.obs.metrics import LatencyHistogram
from repro.serving.bench import serve_bench_rows
from repro.serving.engine import QueryEngine


@pytest.fixture(scope="module")
def small_index():
    return CTIndex.build(gnp_graph(30, 0.15, seed=2), 4)


class TestHistogramEmpty:
    def test_empty_histogram_reports_zeros(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean_seconds == 0.0
        assert histogram.percentile(0.95) == 0.0
        assert histogram.snapshot() == {"count": 0}

    def test_merge_of_empty_histograms_stays_empty(self):
        left, right = LatencyHistogram(), LatencyHistogram()
        left.merge(right)
        assert left.snapshot() == {"count": 0}


class TestEngineZeroQueries:
    def test_stats_snapshot_before_any_query(self, small_index):
        engine = QueryEngine(small_index, cache_capacity=16)
        snapshot = engine.stats_snapshot()
        assert snapshot["queries"] == 0
        assert snapshot["latency"] == {}
        assert snapshot["pair_cache"]["hit_rate"] == 0.0
        assert snapshot["index"]["extension_cache"]["hit_rate"] == 0.0

    def test_empty_batches_are_legal(self, small_index):
        engine = QueryEngine(small_index)
        assert engine.query_batch([]) == []
        assert engine.query_from(0, []) == []
        snapshot = engine.stats_snapshot()
        assert snapshot["queries"] == 0


class TestServeBenchZeroQueries:
    def test_serve_bench_rows_empty_stream(self, small_index):
        rows = serve_bench_rows(small_index, [])
        assert [row["config"] for row in rows] == [
            "uncached",
            "ext-cache",
            "ext+pair-cache",
        ]
        for row in rows:
            assert row["queries"] == 0
            assert row["mean_us"] == 0.0
            assert row["p95_us"] == 0.0
            assert row["ext_hit_rate"] == 0.0
            assert row["pair_hit_rate"] == 0.0

    def test_cli_serve_bench_queries_zero(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        write_edge_list(gnp_graph(20, 0.2, seed=4), path)
        assert main(["serve-bench", str(path), "-d", "3", "--queries", "0"]) == 0
        out = capsys.readouterr().out
        assert "serve-bench" in out


class TestWorkloadGenerators:
    def test_zero_count_workloads(self):
        graph = gnp_graph(10, 0.3, seed=1)
        assert len(random_pairs(graph, 0, seed=0)) == 0
        assert len(distinct_random_pairs(graph, 0, seed=0)) == 0
        assert len(skewed_pairs(graph, 0, seed=0)) == 0

    def test_empty_graph_workloads(self):
        """Regression: randrange(0) used to raise ValueError here."""
        empty = GraphBuilder(0).build()
        assert skewed_pairs(empty, 100, seed=0).pairs == ()
        assert random_pairs(empty, 100, seed=0).pairs == ()
        assert distinct_random_pairs(empty, 100, seed=0).pairs == ()

    def test_single_node_graph_workloads(self):
        lonely = GraphBuilder(1).build()
        assert random_pairs(lonely, 5, seed=0).pairs == ((0, 0),) * 5
        assert distinct_random_pairs(lonely, 5, seed=0).pairs == ()
        assert len(skewed_pairs(lonely, 5, seed=0)) == 5
