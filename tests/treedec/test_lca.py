"""Unit tests for the Euler-tour LCA structure."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import DecompositionError
from repro.treedec.lca import ForestLCA, _sparse_table_python, naive_lca


def random_forest(n: int, n_roots: int, seed: int) -> list[int | None]:
    rng = random.Random(seed)
    parent: list[int | None] = []
    # Parents always point to lower indexes, so index 0..n_roots-1 are roots.
    for v in range(n):
        if v < n_roots:
            parent.append(None)
        else:
            parent.append(rng.randrange(v))
    return parent


class TestSingleTree:
    def test_path_tree(self):
        parent = [None, 0, 1, 2, 3]
        lca = ForestLCA(parent)
        assert lca.lca(4, 2) == 2
        assert lca.lca(4, 4) == 4
        assert lca.lca(0, 4) == 0
        assert lca.depth(4) == 4

    def test_binary_tree(self):
        #      0
        #    1   2
        #   3 4 5 6
        parent = [None, 0, 0, 1, 1, 2, 2]
        lca = ForestLCA(parent)
        assert lca.lca(3, 4) == 1
        assert lca.lca(3, 6) == 0
        assert lca.lca(5, 6) == 2
        assert lca.is_ancestor(0, 6)
        assert not lca.is_ancestor(1, 6)

    def test_single_node(self):
        lca = ForestLCA([None])
        assert lca.lca(0, 0) == 0
        assert lca.root(0) == 0

    def test_empty_forest(self):
        lca = ForestLCA([])
        assert lca.n == 0


class TestForest:
    def test_roots_and_membership(self):
        parent = [None, None, 0, 1]
        lca = ForestLCA(parent)
        assert lca.root(2) == 0
        assert lca.root(3) == 1
        assert lca.same_tree(0, 2)
        assert not lca.same_tree(2, 3)

    def test_cross_tree_lca_raises(self):
        lca = ForestLCA([None, None])
        with pytest.raises(DecompositionError):
            lca.lca(0, 1)

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(DecompositionError):
            ForestLCA([5])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_on_random_forests(self, seed):
        parent = random_forest(60, n_roots=3, seed=seed)
        lca = ForestLCA(parent)
        rng = random.Random(seed + 100)
        for _ in range(200):
            u = rng.randrange(60)
            v = rng.randrange(60)
            expected = naive_lca(parent, u, v)
            if expected is None:
                assert not lca.same_tree(u, v)
            else:
                assert lca.lca(u, v) == expected

    def test_depths_match_parent_walk(self):
        parent = random_forest(40, n_roots=2, seed=9)
        lca = ForestLCA(parent)
        for v in range(40):
            depth = 0
            x = parent[v]
            while x is not None:
                depth += 1
                x = parent[x]
            assert lca.depth(v) == depth


@st.composite
def forests(draw) -> list[int | None]:
    """A random forest (possibly empty) as a parent array, ids shuffled."""
    n = draw(st.integers(0, 70))
    shape = [
        None if v == 0 or draw(st.integers(0, 5)) == 0 else draw(st.integers(0, v - 1))
        for v in range(n)
    ]
    ids = draw(st.permutations(range(n)))
    parent: list[int | None] = [None] * n
    for v, p in enumerate(shape):
        parent[ids[v]] = None if p is None else ids[p]
    return parent


class TestSparseTableKernels:
    """The NumPy sparse table equals the Python one cell for cell."""

    @pytest.mark.parametrize("parent", [[], [None], [None, 0], [None, None]])
    def test_tiny_forests(self, kernel_state, parent):
        lca = ForestLCA(parent)
        assert [list(row) for row in lca._table] == _sparse_table_python(lca._depth_at)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(parent=forests())
    def test_random_forests(self, kernel_state, parent):
        lca = ForestLCA(parent)
        assert [list(row) for row in lca._table] == _sparse_table_python(lca._depth_at)
        for u in range(len(parent)):
            for v in range(u, len(parent)):
                expected = naive_lca(parent, u, v)
                if expected is None:
                    assert not lca.same_tree(u, v)
                else:
                    assert lca.lca(u, v) == expected

    def test_deep_path_crosses_many_levels(self, kernel_state):
        parent = [None] + list(range(299))
        lca = ForestLCA(parent)
        assert len(lca._table) == 10  # 599 tour entries
        assert [list(row) for row in lca._table] == _sparse_table_python(lca._depth_at)
        assert lca.lca(299, 150) == 150


def tour_lists(lca: ForestLCA) -> tuple:
    return lca._euler, lca._depth_at, lca._first, lca._depth, lca._root_of


class TestTourKernels:
    """The NumPy Euler tour equals the Python one cell for cell."""

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(parent=forests())
    def test_random_forests(self, kernel_state, python_path, parent):
        assert tour_lists(ForestLCA(parent)) == tour_lists(python_path(ForestLCA, parent))

    @pytest.mark.parametrize(
        "parent",
        [[], [None], [None, None], [None] + list(range(299)), [None, 0, 0, 0, 1, 1, 2]],
        ids=["empty", "one", "two-roots", "deep-path", "bushy"],
    )
    def test_named_forests(self, kernel_state, python_path, parent):
        assert tour_lists(ForestLCA(parent)) == tour_lists(python_path(ForestLCA, parent))

    @pytest.mark.parametrize("parent", [[1, 0], [None, 2, 1], [None, 0, 3, 4, 2]])
    def test_cycle_raises(self, kernel_state, parent):
        with pytest.raises(DecompositionError, match="contains a cycle"):
            ForestLCA(parent)

    @pytest.mark.parametrize(
        "parent, message",
        [([5], "parent 5 of node 0"), ([None, -1], "parent -1 of node 1"),
         ([None, 0, 3], "parent 3 of node 2")],
    )
    def test_out_of_range_parent_raises(self, kernel_state, parent, message):
        with pytest.raises(DecompositionError, match=f"{message} is out of range"):
            ForestLCA(parent)
