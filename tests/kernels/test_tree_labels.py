"""The level-synchronous forest labels against the Python sweep.

:mod:`repro.kernels.tree_labels` computes the same λ-local labels as
:func:`repro.core.construction.compute_tree_labels`, one depth level at
a time, so every test here is differential: the two kernels must build
the same labels entry for entry (target, distance and its type), not
merely answer the same distances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.core.construction import build_tree_index
from repro.exceptions import OverMemoryError
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.primitives import (
    clique_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.generators.random_graphs import gnp_graph, random_tree, random_weighted
from repro.graphs.graph import Graph
from repro.labeling.base import BYTES_PER_ENTRY, MemoryBudget
from repro.storage.flat_tree import FlatTreeLabelStore
from repro.treedec.core_tree import core_tree_decomposition

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)

SETTINGS = settings(max_examples=60, deadline=None)

#: Decimal fractions whose binary sums round (0.1 + 0.2 != 0.3), so
#: equal-looking routes compete at the last bit.
ROUNDING_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.5)

int_weights = st.integers(min_value=1, max_value=9)
float_weights = st.one_of(
    st.sampled_from(ROUNDING_WEIGHTS),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def weighted_graphs(draw, weights, max_nodes: int = 30) -> Graph:
    """A random simple graph whose edge weights are drawn from ``weights``."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    builder = GraphBuilder(n)
    density = draw(st.floats(min_value=0.03, max_value=0.5))
    chooser = st.floats(min_value=0.0, max_value=1.0)
    for u in range(n):
        for v in range(u + 1, n):
            if draw(chooser) < density:
                builder.add_edge(u, v, draw(weights))
    return builder.build()


def typed(labels) -> list[list[tuple]]:
    """Each label as sorted ``(target, distance, type)`` triples."""
    return [
        sorted((target, dist, type(dist)) for target, dist in label.items())
        for label in labels
    ]


def both_kernels(graph: Graph, bandwidth: int):
    decomposition = core_tree_decomposition(graph, bandwidth)
    fast = build_tree_index(decomposition, kernel="numpy")
    slow = build_tree_index(decomposition, kernel="python")
    assert slow.build_kernel == "python"
    assert typed(fast.labels) == typed(slow.labels)
    return decomposition, fast, slow


class TestLabelIdentity:
    @SETTINGS
    @given(graph=weighted_graphs(int_weights), bandwidth=st.integers(0, 8))
    def test_int_weights(self, graph, bandwidth):
        _, fast, _ = both_kernels(graph, bandwidth)
        assert fast.build_kernel == "numpy"

    @SETTINGS
    @given(graph=weighted_graphs(float_weights), bandwidth=st.integers(0, 8))
    def test_float_weights(self, graph, bandwidth):
        _, fast, _ = both_kernels(graph, bandwidth)
        assert fast.build_kernel == "numpy"

    @SETTINGS
    @given(graph=weighted_graphs(st.just(1)), bandwidth=st.integers(0, 8))
    def test_unweighted(self, graph, bandwidth):
        _, fast, _ = both_kernels(graph, bandwidth)
        assert fast.build_kernel == "numpy"

    def test_mixed_weights_take_the_python_sweep(self):
        builder = GraphBuilder(6)
        for u, v, w in [(0, 1, 1), (1, 2, 2.5), (2, 3, 1), (3, 4, 0.5), (4, 5, 3), (5, 0, 2)]:
            builder.add_edge(u, v, w)
        decomposition, fast, _ = both_kernels(builder.build(), 2)
        kinds = {
            type(w) for step in decomposition.elimination.steps
            for w in step.local_distance.values()
        }
        assert kinds == {int, float}
        assert fast.build_kernel == "python"

    def test_integer_totals_reaching_the_sentinel_take_the_python_sweep(self):
        from repro.kernels.psl_rounds import _INF

        builder = GraphBuilder(4)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            builder.add_edge(u, v, int(_INF) // 2)
        _, fast, _ = both_kernels(builder.build(), 1)
        assert fast.build_kernel == "python"


class TestShapes:
    @pytest.mark.parametrize("bandwidth", [0, 1, 2, 5, 40])
    def test_bandwidths(self, bandwidth):
        graph = random_weighted(gnp_graph(80, 0.06, seed=11), 1, 9, seed=12)
        both_kernels(graph, bandwidth)

    def test_deep_path_like_forest(self):
        decomposition, fast, _ = both_kernels(path_graph(400), 2)
        assert decomposition.forest_height() > 100

    def test_deep_weighted_grid(self):
        graph = random_weighted(grid_graph(4, 60), 1, 7, seed=3)
        decomposition, fast, _ = both_kernels(graph, 8)
        assert decomposition.forest_height() > 100

    def test_deep_trees_under_a_core(self):
        graph = random_weighted(grid_graph(6, 30), 1, 7, seed=3)
        decomposition, fast, _ = both_kernels(graph, 6)
        assert decomposition.forest_height() > 5 and decomposition.core_nodes

    def test_interfaces_up_to_d_wide(self):
        graph = random_weighted(gnp_graph(120, 0.08, seed=5), 1, 5, seed=6)
        bandwidth = 12
        decomposition, _, _ = both_kernels(graph, bandwidth)
        widest = max(len(i) for i in decomposition.interface.values())
        assert 1 < widest <= bandwidth

    def test_single_node_trees(self):
        # Pendant leaves on a K4 core: each leaf is its own one-bag tree.
        builder = GraphBuilder(10)
        for u in range(4):
            for v in range(u + 1, 4):
                builder.add_edge(u, v, 2)
        for leaf in range(4, 10):
            builder.add_edge(leaf, leaf % 4, leaf)
        decomposition, fast, _ = both_kernels(builder.build(), 1)
        assert decomposition.boundary == 6 and decomposition.forest_height() == 1
        assert all(len(label) == 1 for label in fast.labels)

    def test_star_forest(self):
        decomposition, _, _ = both_kernels(star_graph(9), 1)
        assert decomposition.forest_height() == 3

    def test_isolated_nodes(self):
        _, fast, _ = both_kernels(GraphBuilder(5).build(), 0)
        assert list(fast.labels) == [{}] * 5

    def test_empty_forest(self):
        decomposition, fast, _ = both_kernels(clique_graph(6), 2)
        assert decomposition.boundary == 0
        assert fast.labels == [] and fast.build_kernel == "numpy"

    def test_forest_without_core(self):
        decomposition, _, _ = both_kernels(random_tree(60, seed=4), 3)
        assert decomposition.core_nodes == []


class TestBudget:
    def test_same_raising_position_and_charge(self):
        graph = random_weighted(gnp_graph(70, 0.08, seed=8), 1, 9, seed=9)
        decomposition = core_tree_decomposition(graph, 6)
        total = build_tree_index(decomposition, kernel="python").size_entries()
        for entries in (0, 1, total // 3, total - 1, total):
            outcomes = []
            for kernel in ("numpy", "python"):
                budget = MemoryBudget(limit_bytes=entries * BYTES_PER_ENTRY)
                try:
                    build_tree_index(decomposition, budget=budget, kernel=kernel)
                    raised = False
                except OverMemoryError:
                    raised = True
                outcomes.append((raised, budget.charged_entries))
            assert outcomes[0] == outcomes[1], entries
            assert outcomes[0][0] == (entries < total)

    def test_unlimited_budget_is_charged_every_entry(self):
        graph = random_weighted(gnp_graph(40, 0.1, seed=1), 1, 9, seed=2)
        decomposition = core_tree_decomposition(graph, 4)
        budget = MemoryBudget.unlimited()
        index = build_tree_index(decomposition, budget=budget, kernel="numpy")
        assert budget.charged_entries == index.size_entries()


class TestStore:
    def test_the_store_is_the_packed_oracle(self):
        from repro.kernels.tree_labels import tree_label_store

        graph = random_weighted(gnp_graph(90, 0.05, seed=2), 1, 9, seed=3)
        decomposition = core_tree_decomposition(graph, 5)
        store, levels = tree_label_store(decomposition, MemoryBudget.unlimited())
        assert levels == decomposition.forest_height()
        slow = build_tree_index(decomposition, kernel="python")
        packed = FlatTreeLabelStore.from_labels(slow.labels)
        for mine, theirs in zip(store.csr_arrays(), packed.csr_arrays()):
            assert (mine.typecode, mine.tobytes()) == (theirs.typecode, theirs.tobytes())

    def test_float_store_keeps_double_distances(self):
        from repro.kernels.tree_labels import tree_label_store

        graph = GraphBuilder(4)
        for u, v, w in [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.7), (3, 0, 1.1)]:
            graph.add_edge(u, v, w)
        decomposition = core_tree_decomposition(graph.build(), 2)
        store, _ = tree_label_store(decomposition, MemoryBudget.unlimited())
        assert store.csr_arrays()[2].typecode == "d"


class TestSpans:
    def test_forest_span_and_stats_name_the_kernel(self):
        import repro.obs as obs
        from repro.core.ct_index import CTIndex

        graph = random_weighted(gnp_graph(40, 0.12, seed=3), 1, 5, seed=3)
        for kernel in ("numpy", "python"):
            with obs.observe() as tracer:
                index = CTIndex.build(graph, 3, kernel=kernel, backend="flat")
            forest = next(s for s in tracer.finished if s.name == "ct.forest_labeling")
            assert forest.attrs["kernel"] == kernel
            expected_levels = index.forest_height() if kernel == "numpy" else None
            assert forest.attrs["levels"] == expected_levels
            assert index.stats().extra["forest_kernel"] == kernel
