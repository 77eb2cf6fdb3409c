"""Unit tests for the core-tree decomposition (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.exceptions import DecompositionError
from repro.graphs.generators.primitives import clique_graph, path_graph
from repro.graphs.generators.random_graphs import gnp_graph
from repro.graphs.graph import Graph
from repro.treedec.core_tree import core_tree_decomposition
from repro.treedec.elimination import minimum_degree_elimination


class TestPaperExample:
    """Example 5: bandwidth d = 2 on the Figure 1(a) graph."""

    def test_boundary_and_core(self, paper_graph):
        ctd = core_tree_decomposition(paper_graph, 2)
        assert ctd.boundary == 8
        assert [v + 1 for v in ctd.core_nodes] == [9, 10, 11, 12]

    def test_roots(self, paper_graph):
        ctd = core_tree_decomposition(paper_graph, 2)
        root_nodes = sorted(ctd.node_at(r) + 1 for r in ctd.roots)
        assert root_nodes == [4, 8]  # R = {4, 8}

    def test_interfaces(self, paper_graph):
        ctd = core_tree_decomposition(paper_graph, 2)
        interfaces = {
            ctd.node_at(r) + 1: [u + 1 for u in nodes] for r, nodes in ctd.interface.items()
        }
        assert interfaces == {4: [11, 12], 8: [10, 12]}

    def test_tree_membership(self, paper_graph):
        # T8 contains B5, B6, B7, B8 (Example 5).
        ctd = core_tree_decomposition(paper_graph, 2)
        members = ctd.tree_members()
        by_root = {
            ctd.node_at(r) + 1: sorted(ctd.node_at(p) + 1 for p in positions)
            for r, positions in members.items()
        }
        assert by_root[8] == [5, 6, 7, 8]
        assert by_root[4] == [1, 2, 3, 4]

    def test_root_function(self, paper_graph):
        ctd = core_tree_decomposition(paper_graph, 2)
        # r(6) = 8 (Example 9) and r(5) = r(6) (Example 12).
        pos6 = ctd.position[5]
        pos5 = ctd.position[4]
        assert ctd.node_at(ctd.root[pos6]) + 1 == 8
        assert ctd.root[pos5] == ctd.root[pos6]

    def test_validates(self, paper_graph):
        core_tree_decomposition(paper_graph, 2).validate()


class TestGeneral:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5, 10])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_validate_random(self, d, seed):
        g = gnp_graph(50, 0.1, seed=seed)
        ctd = core_tree_decomposition(g, d)
        ctd.validate()

    def test_bandwidth_zero_everything_core(self):
        g = gnp_graph(20, 0.3, seed=3)
        ctd = core_tree_decomposition(g, 0)
        assert ctd.boundary == 0
        assert ctd.core_nodes == list(range(20))
        assert ctd.forest_height() == 0

    def test_huge_bandwidth_everything_forest(self):
        g = gnp_graph(25, 0.2, seed=4)
        ctd = core_tree_decomposition(g, 1000)
        assert ctd.boundary == 25
        assert ctd.core_nodes == []

    def test_interface_sizes_bounded(self):
        g = gnp_graph(60, 0.12, seed=5)
        for d in (2, 4, 8):
            ctd = core_tree_decomposition(g, d)
            assert all(len(nodes) <= d for nodes in ctd.interface.values())

    def test_interface_nodes_are_core(self):
        g = gnp_graph(60, 0.12, seed=6)
        ctd = core_tree_decomposition(g, 4)
        for nodes in ctd.interface.values():
            assert all(ctd.is_core(u) for u in nodes)

    def test_tree_of_core_node_raises(self):
        g = clique_graph(6)
        ctd = core_tree_decomposition(g, 2)
        with pytest.raises(DecompositionError):
            ctd.tree_of(0)

    def test_elimination_reuse(self):
        g = gnp_graph(30, 0.15, seed=7)
        elimination = minimum_degree_elimination(g, bandwidth=3)
        ctd = core_tree_decomposition(g, 3, elimination=elimination)
        assert ctd.elimination is elimination

    def test_elimination_bandwidth_mismatch(self):
        g = gnp_graph(20, 0.2, seed=8)
        elimination = minimum_degree_elimination(g, bandwidth=3)
        with pytest.raises(DecompositionError):
            core_tree_decomposition(g, 5, elimination=elimination)

    def test_neighbors_split_chain_and_interface(self):
        # Lemma 15(1): tree neighbors of any bag lie on its ancestor
        # chain; core neighbors lie in the tree's interface.
        g = gnp_graph(70, 0.1, seed=9)
        ctd = core_tree_decomposition(g, 4)
        for pos in range(ctd.boundary):
            step = ctd.elimination.steps[pos]
            chain_nodes = {ctd.node_at(p) for p in ctd.ancestors_of(pos)}
            interface = set(ctd.interface[ctd.root[pos]])
            for u in step.neighbors:
                if ctd.is_core(u):
                    assert u in interface, (pos, u)
                else:
                    assert u in chain_nodes, (pos, u)

    def test_depths_consistent(self):
        g = gnp_graph(40, 0.12, seed=10)
        ctd = core_tree_decomposition(g, 3)
        for pos in range(ctd.boundary):
            p = ctd.parent[pos]
            if p is None:
                assert ctd.depth[pos] == 0
            else:
                assert ctd.depth[pos] == ctd.depth[p] + 1

    def test_lca_within_tree(self):
        g = path_graph(12)
        ctd = core_tree_decomposition(g, 2)
        members = ctd.tree_members()
        for positions in members.values():
            for a in positions[:4]:
                for b in positions[:4]:
                    meet = ctd.lca(a, b)
                    assert meet in positions

    def test_forest_height_path(self):
        g = path_graph(10)
        ctd = core_tree_decomposition(g, 2)
        assert ctd.forest_height() >= 1

    def test_empty_graph(self):
        ctd = core_tree_decomposition(Graph.empty(0), 5)
        assert ctd.boundary == 0
        assert ctd.roots == []


class TestParentKernels:
    """The NumPy parent computation gives the Python decomposition."""

    @pytest.mark.parametrize("bandwidth", [0, 1, 2, 4, 8, 30])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_structure(self, kernel_state, python_path, bandwidth, seed):
        from repro.graphs.generators.random_graphs import random_weighted

        graph = random_weighted(gnp_graph(60, 0.07, seed=seed), 1, 9, seed=seed)
        fast = core_tree_decomposition(graph, bandwidth)
        slow = python_path(
            lambda: core_tree_decomposition(graph, bandwidth, elimination=fast.elimination)
        )
        assert (fast.parent, fast.root, fast.depth, fast.interface) == (
            slow.parent, slow.root, slow.depth, slow.interface
        )
        assert fast._lca._euler == slow._lca._euler

    def test_empty_and_edgeless(self, kernel_state, python_path):
        for graph in (Graph.empty(0), Graph.empty(4), clique_graph(5)):
            fast = core_tree_decomposition(graph, 2)
            slow = python_path(lambda: core_tree_decomposition(graph, 2))
            assert (fast.parent, fast.root, fast.depth, fast.interface) == (
                slow.parent, slow.root, slow.depth, slow.interface
            )
