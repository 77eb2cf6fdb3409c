"""Unit tests for the equivalence (twin) reduction."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs import reductions
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.primitives import clique_graph, star_graph
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.graph import Graph
from repro.graphs.reductions import (
    eliminate_equivalent_nodes,
    reduction_identity,
    verify_reduction_distances,
)

#: ``kernel_state`` is function-scoped but constant across examples.
IDENTITY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def twin_graphs(draw) -> Graph:
    """Graphs rich in twin classes of both kinds, under shuffled ids.

    A random base graph has each node blown up into a class of 1-4
    copies, each class an independent set (false twins) or a clique
    (true twins); base edges join whole classes, classes without base
    edges are isolated, and a few stray edges split some classes.
    """
    base_n = draw(st.integers(0, 7))
    sizes = [draw(st.integers(1, 4)) for _ in range(base_n)]
    cliques = [draw(st.booleans()) for _ in range(base_n)]
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    classes, start = [], 0
    for size in sizes:
        classes.append(ids[start : start + size])
        start += size
    builder = GraphBuilder(n)
    for members, clique in zip(classes, cliques):
        if clique:
            builder.add_clique(members)
    for a in range(base_n):
        for b in range(a + 1, base_n):
            if draw(st.booleans()):
                for u in classes[a]:
                    for v in classes[b]:
                        builder.add_edge(u, v)
    if n >= 2:
        node = st.integers(0, n - 1)
        for u, v in draw(st.lists(st.tuples(node, node), max_size=3)):
            if u != v:
                builder.add_edge(u, v)
    return builder.build()


def assert_same_reduction(result, expected) -> None:
    assert result.representative == expected.representative
    assert result.originals == expected.originals
    assert result.twin_kind == expected.twin_kind
    assert result.reduced == expected.reduced
    assert result.reduced.m == expected.reduced.m
    assert result.reduced.unweighted == expected.reduced.unweighted


class TestFalseTwins:
    def test_star_leaves_fold(self):
        # All leaves of a star share the neighborhood {center}.
        reduction = eliminate_equivalent_nodes(star_graph(5))
        assert reduction.reduced.n == 2
        assert reduction.removed_count == 4

    def test_false_twin_distance_is_two(self):
        reduction = eliminate_equivalent_nodes(star_graph(3))
        leaves = [v for v in range(1, 4)]
        assert reduction.class_distance(leaves[0], leaves[1]) == 2

    def test_degree_zero_nodes_not_folded(self):
        g = Graph.empty(4)
        reduction = eliminate_equivalent_nodes(g)
        assert reduction.reduced.n == 4
        assert reduction.removed_count == 0


class TestTrueTwins:
    def test_clique_folds_to_single_node(self):
        reduction = eliminate_equivalent_nodes(clique_graph(5))
        assert reduction.reduced.n == 1

    def test_true_twin_distance_is_one(self):
        reduction = eliminate_equivalent_nodes(clique_graph(4))
        assert reduction.class_distance(0, 3) == 1

    def test_same_node_distance_zero(self):
        reduction = eliminate_equivalent_nodes(clique_graph(3))
        assert reduction.class_distance(1, 1) == 0


class TestMapDistance:
    def test_cross_class_uses_reduced_distance(self):
        # Two stars joined at the centers: leaves fold per star.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5), (0, 3)])
        reduction = eliminate_equivalent_nodes(g)
        rs = reduction.representative[1]
        rt = reduction.representative[4]
        assert rs != rt
        # dist(leaf, other-star leaf) = 1 + 1 + 1 = 3.
        assert reduction.map_distance(1, 4, 3) == 3

    def test_same_node(self):
        reduction = eliminate_equivalent_nodes(star_graph(3))
        assert reduction.map_distance(2, 2, 999) == 0

    def test_class_distance_rejects_cross_class(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        reduction = eliminate_equivalent_nodes(g)
        rep0 = reduction.representative[0]
        rep1 = reduction.representative[1]
        if rep0 != rep1:
            with pytest.raises(GraphError):
                reduction.class_distance(0, 1)


class TestPreservation:
    @pytest.mark.parametrize("seed", range(8))
    def test_distances_preserved_random(self, seed):
        g = gnp_graph(35, 0.12, seed=seed)
        reduction = eliminate_equivalent_nodes(g)
        verify_reduction_distances(reduction, samples=80)

    def test_weighted_graphs_untouched(self):
        g = random_weighted(gnp_graph(15, 0.3, seed=1), 2, 5, seed=2)
        reduction = eliminate_equivalent_nodes(g)
        assert reduction.reduced is g
        assert reduction.removed_count == 0

    def test_empty_graph(self):
        reduction = eliminate_equivalent_nodes(Graph.empty(0))
        verify_reduction_distances(reduction)


class TestIdentity:
    def test_identity_reduction(self):
        g = gnp_graph(10, 0.3, seed=5)
        reduction = reduction_identity(g)
        assert reduction.reduced is g
        assert reduction.representative == list(range(10))
        assert all(kind is None for kind in reduction.twin_kind)


def _mixed_graph() -> Graph:
    # A 3-clique {0, 1, 2} of true twins hanging off node 3, whose
    # leaves {4, 5, 6} are false twins, plus isolated nodes 7 and 8.
    builder = GraphBuilder(9)
    builder.add_clique([0, 1, 2])
    for v in (0, 1, 2, 4, 5, 6):
        builder.add_edge(3, v)
    return builder.build()


NAMED_GRAPHS = {
    "star": lambda: star_graph(6),
    "clique": lambda: clique_graph(5),
    "isolated": lambda: Graph.empty(4),
    "empty": lambda: Graph.empty(0),
    "mixed": _mixed_graph,
    "gnp": lambda: gnp_graph(60, 0.05, seed=11),
}


class TestKernelIdentity:
    """The NumPy path and the dict-grouping oracle agree exactly."""

    @pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
    def test_named_graphs(self, kernel_state, name):
        graph = NAMED_GRAPHS[name]()
        result = eliminate_equivalent_nodes(graph)
        assert result.kernel == kernel_state
        assert_same_reduction(result, reductions._eliminate_python(graph))

    def test_mixed_graph_classes(self, kernel_state):
        result = eliminate_equivalent_nodes(_mixed_graph())
        assert result.twin_kind == ["true"] * 3 + [None] + ["false"] * 3 + [None] * 2
        assert result.representative[:7] == [0, 0, 0, 1, 2, 2, 2]
        assert result.originals == [0, 3, 4, 7, 8]

    @IDENTITY_SETTINGS
    @given(graph=twin_graphs())
    def test_random_twin_graphs(self, kernel_state, graph):
        result = eliminate_equivalent_nodes(graph)
        assert result.kernel == kernel_state
        assert_same_reduction(result, reductions._eliminate_python(graph))

    @IDENTITY_SETTINGS
    @given(graph=twin_graphs())
    def test_colliding_row_hash(self, kernel_state, monkeypatch, graph):
        """With a constant row hash every equal-degree pair collides;
        the exact check and the dict fallback must still find the
        oracle's classes."""
        if kernel_state == "numpy":
            import numpy as np

            monkeypatch.setattr(
                reductions, "_row_hash_salts", lambda n: np.zeros((2, n), dtype=np.uint64)
            )
        result = eliminate_equivalent_nodes(graph)
        assert_same_reduction(result, reductions._eliminate_python(graph))

    def test_weighted_graph_is_identity(self, kernel_state):
        graph = random_weighted(gnp_graph(15, 0.3, seed=1), 2, 5, seed=2)
        result = eliminate_equivalent_nodes(graph)
        assert result.kernel == "python"
        assert result == reduction_identity(graph)

    def test_float_unit_weights_keep_the_reference_path(self, kernel_state):
        builder = GraphBuilder(4)
        for leaf in (1, 2, 3):
            builder.add_edge(0, leaf, 1.0)
        graph = builder.build()
        assert graph.unweighted
        result = eliminate_equivalent_nodes(graph)
        assert result.kernel == "python"
        assert result.reduced.neighbor_weights(0) == (1.0,)
