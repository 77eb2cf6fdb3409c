"""Unit tests for Pruned Landmark Labeling."""

from __future__ import annotations

import bisect
import itertools

import pytest

import repro.kernels as kernels

from repro.exceptions import OverMemoryError
from repro.graphs.generators.primitives import clique_graph, cycle_graph, grid_graph, path_graph
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.graph import INF, Graph
from repro.graphs.traversal import all_pairs_distances
from repro.labeling.base import MemoryBudget
from repro.labeling.ordering import degree_order, random_order
from repro.labeling.pll import build_pll


def assert_exact(index, graph):
    truth = all_pairs_distances(graph)
    for s in graph.nodes():
        for t in graph.nodes():
            assert index.distance(s, t) == truth[s][t], (s, t)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_unweighted(self, seed):
        assert_exact(build_pll(gnp_graph(30, 0.12, seed=seed)), gnp_graph(30, 0.12, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_weighted(self, seed):
        g = random_weighted(gnp_graph(22, 0.2, seed=seed), 1, 9, seed=seed + 10)
        assert_exact(build_pll(g), g)

    def test_disconnected(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3)])
        pll = build_pll(g)
        assert pll.distance(0, 1) == 1
        assert pll.distance(0, 3) == INF
        assert pll.distance(4, 5) == INF

    def test_named_graphs(self, small_graphs):
        for name, g in small_graphs.items():
            assert_exact(build_pll(g), g)

    def test_single_node(self):
        pll = build_pll(Graph.empty(1))
        assert pll.distance(0, 0) == 0

    def test_random_order_still_exact(self):
        g = gnp_graph(25, 0.15, seed=7)
        assert_exact(build_pll(g, random_order(g, seed=1)), g)


class TestLabelStructure:
    def test_first_hub_labels_everything_in_component(self):
        g = cycle_graph(8)
        pll = build_pll(g)
        top = pll.order[0]
        # The highest-ranked node appears in every node's label.
        for v in g.nodes():
            hubs = [h for h, _ in pll.labels.label_entries(v)]
            assert top in hubs

    def test_clique_labels_quadratic(self):
        # In a clique, pairs at distance 1 admit no intermediate hub, so
        # the index must hold ~n^2/2 entries (the Lemma 3 phenomenon).
        n = 10
        pll = build_pll(clique_graph(n))
        assert pll.size_entries() == n * (n + 1) // 2

    def test_path_labels_small_under_balanced_order(self):
        # A balanced-separator order realizes the O(n log n) bound on a
        # path (Theorem 4.4 of [2]); degree order cannot (all ties).
        n = 64

        def balanced(lo: int, hi: int, out: list[int]) -> None:
            if lo > hi:
                return
            mid = (lo + hi) // 2
            out.append(mid)
            balanced(lo, mid - 1, out)
            balanced(mid + 1, hi, out)

        order: list[int] = []
        balanced(0, n - 1, order)
        pll = build_pll(path_graph(n), order)
        import math

        assert pll.size_entries() <= 2 * n * math.log2(n)
        assert_exact(pll, path_graph(n))

    def test_max_label_size(self):
        pll = build_pll(grid_graph(5, 5))
        assert pll.max_label_size() >= 1
        assert pll.max_label_size() <= 25

    def test_self_hub_present(self):
        g = gnp_graph(15, 0.2, seed=9)
        pll = build_pll(g)
        for v in g.nodes():
            assert (v, 0) in pll.labels.label_entries(v)

    def test_degree_order_beats_random_on_scale_free(self):
        from repro.graphs.generators.power_law import barabasi_albert_graph

        g = barabasi_albert_graph(150, 3, seed=2)
        by_degree = build_pll(g, degree_order(g))
        by_random = build_pll(g, random_order(g, seed=3))
        assert by_degree.size_entries() < by_random.size_entries()


class TestBudget:
    def test_budget_overflow_raises(self):
        g = gnp_graph(40, 0.3, seed=1)
        with pytest.raises(OverMemoryError):
            build_pll(g, budget=MemoryBudget(limit_bytes=100))

    def test_budget_exempt_nodes_do_not_charge(self):
        g = clique_graph(8)
        exempt = frozenset(g.nodes())
        # All nodes exempt: even a 1-byte budget survives.
        index = build_pll(g, budget=MemoryBudget(limit_bytes=1), budget_exempt=exempt)
        assert index.size_entries() > 0

    def test_generous_budget_passes(self):
        g = gnp_graph(20, 0.2, seed=2)
        index = build_pll(g, budget=MemoryBudget.from_megabytes(10))
        assert index.size_entries() > 0


KERNELS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not kernels.numpy_available(), reason="NumPy not installed"
        ),
    ),
]


def weighted_gnp(n, p, seed):
    return random_weighted(gnp_graph(n, p, seed=seed), 1, 9, seed=seed)


@pytest.mark.parametrize("kernel", KERNELS)
class TestBudgetOnBothKernels:
    """TestBudget's cases on weighted graphs, where the two kernels differ."""

    def test_budget_overflow_raises(self, kernel):
        with pytest.raises(OverMemoryError):
            build_pll(
                weighted_gnp(40, 0.3, 1),
                budget=MemoryBudget(limit_bytes=100),
                kernel=kernel,
            )

    def test_budget_exempt_nodes_do_not_charge(self, kernel):
        g = random_weighted(clique_graph(8), 1, 5, seed=3)
        budget = MemoryBudget(limit_bytes=1)
        index = build_pll(
            g, budget=budget, budget_exempt=frozenset(g.nodes()), kernel=kernel
        )
        assert index.size_entries() > 0
        assert budget.charged_entries == 0

    def test_generous_budget_passes(self, kernel):
        index = build_pll(
            weighted_gnp(20, 0.2, 2),
            budget=MemoryBudget.from_megabytes(10),
            kernel=kernel,
        )
        assert index.size_entries() > 0

    @pytest.mark.parametrize("exempt_every", [0, 3])
    def test_raising_root_and_charges_match_the_python_search(
        self, kernel, exempt_every
    ):
        g = weighted_gnp(40, 0.25, 5)
        exempt = frozenset(range(0, g.n, exempt_every)) if exempt_every else frozenset()
        reference = build_pll(g, budget_exempt=exempt, kernel="python")
        # Charged entries per root (rank order), then running totals.
        per_root = [0] * g.n
        for v in g.nodes():
            if v not in exempt:
                for hub_rank, _ in reference.labels.iter_rank_entries(v):
                    per_root[hub_rank] += 1
        totals = list(itertools.accumulate(per_root))
        budget = MemoryBudget.unlimited()
        build_pll(g, budget=budget, budget_exempt=exempt, kernel=kernel)
        assert budget.charged_entries == totals[-1]
        for limit in (5, totals[-1] // 3, totals[-1] - 1):
            budget = MemoryBudget(limit_bytes=8 * limit)
            with pytest.raises(OverMemoryError):
                build_pll(g, budget=budget, budget_exempt=exempt, kernel=kernel)
            # The Python search charges entry by entry and stops at the
            # first one over the limit; the vectorized one charges each
            # root's block at once.  Either way the root is the first
            # whose running total passes the limit.
            root = bisect.bisect_right(totals, limit)
            if kernel == "python":
                assert budget.charged_entries == limit + 1
            else:
                assert budget.charged_entries == totals[root]


class TestStats:
    def test_stats_populated(self):
        g = gnp_graph(20, 0.2, seed=3)
        stats = build_pll(g).stats()
        assert stats.method == "PLL"
        assert stats.entries > 0
        assert stats.bytes == stats.entries * 8
        assert stats.build_seconds > 0
