"""The vectorized weighted PLL search against the Python pruned Dijkstra.

:mod:`repro.kernels.pll_search` runs the same per-root searches as
``_build_weighted``, so every test here is differential: the two
kernels must build the same labels entry for entry (hub rank *and*
distance, per node, in order), not merely answer the same distances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.primitives import grid_graph
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.graph import INF, Graph
from repro.labeling.base import MemoryBudget
from repro.labeling.pll import build_pll
from repro.labeling.psl_variants import build_psl_star

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)

SETTINGS = settings(max_examples=60, deadline=None)

#: Decimal fractions whose binary sums round (0.1 + 0.2 != 0.3), so
#: equal-looking paths compete at the last bit.
ROUNDING_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.5)


@st.composite
def weighted_graphs(draw, weights, max_nodes: int = 22) -> Graph:
    """A random simple graph whose edge weights are drawn from ``weights``."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    builder = GraphBuilder(n)
    density = draw(st.floats(min_value=0.05, max_value=0.7))
    chooser = st.floats(min_value=0.0, max_value=1.0)
    for u in range(n):
        for v in range(u + 1, n):
            if draw(chooser) < density:
                builder.add_edge(u, v, draw(weights))
    return builder.build()


int_weights = st.integers(min_value=1, max_value=9)
float_weights = st.one_of(
    st.sampled_from(ROUNDING_WEIGHTS),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False),
)
mixed_weights = st.one_of(int_weights, st.sampled_from(ROUNDING_WEIGHTS))


def assert_same_labels(fast, slow) -> None:
    assert fast.order == slow.order
    for v in range(slow.labels.n):
        assert list(fast.labels.iter_rank_entries(v)) == list(
            slow.labels.iter_rank_entries(v)
        ), v


def both_kernels(graph: Graph, **kwargs):
    fast = build_pll(graph, kernel="numpy", **kwargs)
    slow = build_pll(graph, order=fast.order, kernel="python", **kwargs)
    assert slow.build_kernel == "python"
    assert_same_labels(fast, slow)
    return fast, slow


class TestLabelIdentity:
    @SETTINGS
    @given(graph=weighted_graphs(int_weights))
    def test_int_weights(self, graph):
        fast, _ = both_kernels(graph)
        if not graph.unweighted:
            assert fast.build_kernel == "numpy"

    @SETTINGS
    @given(graph=weighted_graphs(float_weights))
    def test_float_weights(self, graph):
        fast, _ = both_kernels(graph)
        if not graph.unweighted:
            assert fast.build_kernel == "numpy"

    @SETTINGS
    @given(graph=weighted_graphs(mixed_weights))
    def test_mixed_int_and_float_weights(self, graph):
        both_kernels(graph)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_orders(self, seed):
        from repro.labeling.ordering import random_order

        g = random_weighted(gnp_graph(60, 0.15, seed=seed), 1, 20, seed=seed)
        order = random_order(g, seed=seed)
        fast = build_pll(g, order, kernel="numpy")
        assert_same_labels(fast, build_pll(g, order, kernel="python"))

    def test_many_equal_length_paths(self):
        # Every grid route between two corners has the same length.
        g = random_weighted(grid_graph(7, 7), 3, 3, seed=0)
        both_kernels(g)
        g = random_weighted(grid_graph(6, 6), 1, 2, seed=1)
        both_kernels(g)

    def test_disconnected_components(self):
        g = Graph.from_edges(
            9, [(0, 1, 3), (1, 2, 2), (0, 2, 7), (3, 4, 5), (5, 6, 1.5), (6, 7, 0.5)]
        )
        fast, _ = both_kernels(g)
        assert fast.distance(0, 3) == INF
        assert fast.distance(5, 7) == 2.0
        assert fast.distance(8, 8) == 0

    def test_one_edge(self):
        fast, _ = both_kernels(Graph.from_edges(2, [(0, 1, 7)]))
        assert fast.distance(0, 1) == 7
        assert fast.build_kernel == "numpy"

    def test_one_node(self):
        # A weighted core can be a single node with no edges.
        g = Graph(1, [[]], unweighted=False)
        fast, _ = both_kernels(g)
        assert list(fast.labels.iter_rank_entries(0)) == [(0, 0)]

    def test_edgeless_weighted_graph(self):
        g = Graph(3, [[], [], []], unweighted=False)
        fast, _ = both_kernels(g)
        assert fast.distance(0, 2) == INF


class TestPythonFallback:
    def test_weights_totalling_the_sentinel_run_python(self):
        from repro.kernels.psl_rounds import _INF

        big = int(_INF) - 1
        g = Graph.from_edges(3, [(0, 1, big), (1, 2, 1)])
        assert g.total_weight() >= _INF
        fast, slow = both_kernels(g)
        assert fast.build_kernel == "python"
        assert fast.distance(0, 2) == big + 1

    def test_weights_just_below_the_sentinel_vectorize(self):
        from repro.kernels.psl_rounds import _INF

        big = int(_INF) - 2
        g = Graph.from_edges(3, [(0, 1, big), (1, 2, 1)])
        fast, _ = both_kernels(g)
        assert fast.build_kernel == "numpy"
        assert fast.distance(0, 2) == big + 1

    def test_weights_beyond_int64_run_python(self):
        g = Graph.from_edges(3, [(0, 1, 2**70), (1, 2, 3)])
        fast, _ = both_kernels(g)
        assert fast.build_kernel == "python"
        assert fast.distance(0, 2) == 2**70 + 3

    def test_without_numpy_the_python_search_runs(self, monkeypatch):
        g = random_weighted(gnp_graph(30, 0.2, seed=4), 1, 9, seed=4)
        vectorized = build_pll(g)
        monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
        fallback = build_pll(g)
        assert vectorized.build_kernel == "numpy"
        assert fallback.build_kernel == "python"
        assert_same_labels(vectorized, fallback)

    def test_unweighted_graphs_keep_the_pruned_bfs(self):
        index = build_pll(gnp_graph(30, 0.2, seed=5), kernel="numpy")
        assert index.build_kernel == "python"


class TestPslStar:
    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_psl_star_labels_unchanged(self, seed, monkeypatch):
        # PSL* labels the twin-reduced graph with build_pll, exempting
        # the local minima (whose labels it drops) from the budget.
        g = random_weighted(gnp_graph(40, 0.12, seed=seed), 1, 6, seed=seed)
        fast_budget, slow_budget = MemoryBudget.unlimited(), MemoryBudget.unlimited()
        vectorized = build_psl_star(g, budget=fast_budget)
        monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
        reference = build_psl_star(g, budget=slow_budget)
        assert vectorized.dropped == reference.dropped
        assert fast_budget.charged_entries == slow_budget.charged_entries
        assert_same_labels(vectorized, reference)
