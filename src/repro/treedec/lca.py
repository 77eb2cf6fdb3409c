"""Constant-time lowest common ancestors over a forest.

CT-Index query Case 4 needs the LCA of two bags in the same tree of the
forest.  This is the classic Euler-tour + sparse-table reduction to
range-minimum queries (Harel & Tarjan — cited as [12] in the paper):
linear-ish preprocessing, O(1) per query.
"""

from __future__ import annotations

from array import array

from repro.exceptions import DecompositionError
from repro.kernels import numpy_available


class ForestLCA:
    """LCA index over a forest given as a parent array.

    ``parent[v]`` is the parent of node ``v`` or ``None`` for roots.  The
    node universe is ``0 .. len(parent) - 1``.  Nodes in different trees
    have no LCA; :meth:`lca` raises for such pairs, and
    :meth:`same_tree` tests membership first.
    """

    def __init__(self, parent: list[int | None]) -> None:
        self._parent = list(parent)
        fast = numpy_available()
        tour = _tour_numpy if fast else _tour_python
        (
            self._euler,
            self._depth_at,
            self._first,
            self._depth,
            self._root_of,
        ) = tour(self._parent)
        build = _sparse_table_numpy if fast else _sparse_table_python
        self._table = build(self._depth_at)

    @property
    def n(self) -> int:
        """Number of nodes in the forest."""
        return len(self._parent)

    def depth(self, v: int) -> int:
        """Depth of ``v`` within its tree (roots have depth 0)."""
        return self._depth[v]

    def root(self, v: int) -> int:
        """Root of the tree containing ``v``."""
        return self._root_of[v]

    def same_tree(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` belong to the same tree."""
        return self._root_of[u] == self._root_of[v]

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v`` (same tree required)."""
        if not self.same_tree(u, v):
            raise DecompositionError(f"nodes {u} and {v} are in different trees")
        i, j = self._first[u], self._first[v]
        if i > j:
            i, j = j, i
        k = (j - i + 1).bit_length() - 1
        left = self._table[k][i]
        right = self._table[k][j - (1 << k) + 1]
        winner = left if self._depth_at[left] <= self._depth_at[right] else right
        return self._euler[winner]

    def is_ancestor(self, ancestor: int, v: int) -> bool:
        """True when ``ancestor`` is ``v`` itself or a proper ancestor."""
        return self.same_tree(ancestor, v) and self.lca(ancestor, v) == ancestor


def _tour_python(parent: list[int | None]):
    """Euler tour of a forest: ``(euler, depth_at, first, depth, root_of)``.

    Trees are toured in ascending root id, children in ascending id;
    ``euler`` lists a node on entry and again after each child's
    subtree, ``depth_at`` is the depth of each tour entry and ``first``
    each node's first tour index.
    """
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []
    for v, p in enumerate(parent):
        if p is None:
            roots.append(v)
        else:
            if not 0 <= p < n:
                raise DecompositionError(f"parent {p} of node {v} is out of range")
            children[p].append(v)

    euler: list[int] = []
    depth_at: list[int] = []
    first = [-1] * n
    depth = [0] * n
    root_of = [-1] * n
    for root in roots:
        stack: list[tuple[int, int]] = [(root, 0)]
        root_of[root] = root
        while stack:
            v, child_index = stack.pop()
            if first[v] == -1:
                first[v] = len(euler)
            euler.append(v)
            depth_at.append(depth[v])
            if child_index < len(children[v]):
                stack.append((v, child_index + 1))
                child = children[v][child_index]
                depth[child] = depth[v] + 1
                root_of[child] = root
                stack.append((child, 0))
    if -1 in root_of:
        raise DecompositionError("parent array contains a cycle")
    return euler, depth_at, first, depth, root_of


def _tour_numpy(parent: list[int | None]):
    """:func:`_tour_python` from level-order subtree sizes.

    A node's subtree spans ``2 * size - 1`` tour entries.  A root's
    first entry follows the earlier trees; a child's follows its
    parent's first entry and the ``2 * size`` entries of each earlier
    sibling (its subtree plus the parent's re-entry).  The parent's
    re-entry after child ``c`` sits at ``first[c] + 2 * size[c] - 1``.
    """
    import numpy as np

    from repro.kernels.arrays import optional_ids, ranges

    n = len(parent)
    try:
        up = optional_ids(parent)
    except (OverflowError, TypeError):
        return _tour_python(parent)
    is_root = np.fromiter((p is None for p in parent), dtype=bool, count=n)
    bad = ~is_root & ((up < 0) | (up >= n))
    if bad.any():
        v = int(np.argmax(bad))
        raise DecompositionError(f"parent {parent[v]} of node {v} is out of range")
    children = np.flatnonzero(~is_root)
    children = children[np.argsort(up[children], kind="stable")]
    child_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(up[children], minlength=n), out=child_ptr[1:])

    depth = np.zeros(n, dtype=np.int64)
    root_of = np.full(n, -1, dtype=np.int64)
    levels = [np.flatnonzero(is_root)]
    root_of[levels[0]] = levels[0]
    reached = levels[0].size
    while reached < n:
        above = levels[-1]
        below = children[
            ranges(child_ptr[above], child_ptr[above + 1] - child_ptr[above])
        ]
        if not below.size:
            raise DecompositionError("parent array contains a cycle")
        depth[below] = len(levels)
        root_of[below] = root_of[up[below]]
        levels.append(below)
        reached += below.size

    size = np.ones(n, dtype=np.int64)
    for below in reversed(levels[1:]):
        np.add.at(size, up[below], size[below])
    span = 2 * size[children]
    before = np.cumsum(span) - span
    sibling_offset = np.zeros(n, dtype=np.int64)
    sibling_offset[children] = before - before[child_ptr[up[children]]]
    first = np.zeros(n, dtype=np.int64)
    roots = levels[0]
    tree_span = 2 * size[roots] - 1
    first[roots] = np.cumsum(tree_span) - tree_span
    for below in levels[1:]:
        first[below] = first[up[below]] + 1 + sibling_offset[below]
    euler = np.empty(2 * n - roots.size, dtype=np.int64)
    euler[first] = np.arange(n, dtype=np.int64)
    euler[first[children] + span - 1] = up[children]
    # One int object per node id, shared by every list (as the Python
    # tour shares them), instead of one per list cell.
    ids = np.arange(n).astype(object)
    return (
        ids[euler].tolist(),
        ids[depth[euler]].tolist(),
        first.tolist(),
        ids[depth].tolist(),
        ids[root_of].tolist(),
    )


def _sparse_table_python(depth_at: list[int]) -> list[list[int]]:
    """Sparse table over an Euler tour's depths.

    ``table[k][i]`` is the index (into the tour) of the min-depth entry
    in ``tour[i : i + 2^k]``; ties keep the left entry.
    """
    size = len(depth_at)
    table: list[list[int]] = [list(range(size))]
    k = 1
    while (1 << k) <= size:
        previous = table[k - 1]
        length = size - (1 << k) + 1
        row = [0] * length
        half = 1 << (k - 1)
        for i in range(length):
            left = previous[i]
            right = previous[i + half]
            row[i] = left if depth_at[left] <= depth_at[right] else right
        table.append(row)
        k += 1
    return table


def _sparse_table_numpy(depth_at: list[int]) -> list[array]:
    """:func:`_sparse_table_python` with each level one ``np.where``.

    Rows are kept as the narrowest unsigned ``array`` that indexes the
    tour, so queries read them like lists without a Python int per cell.
    """
    import numpy as np

    size = len(depth_at)
    code = next(c for c in "HIQ" if size <= 1 << (8 * array(c).itemsize))
    depth = np.asarray(depth_at, dtype=np.int64)
    level = np.arange(size, dtype=np.dtype(code))
    table = []
    half = 1
    while True:
        row = array(code)
        row.frombytes(level.tobytes())
        table.append(row)
        if 2 * half > size:
            return table
        left = level[: size - 2 * half + 1]
        right = level[half : size - half + 1]
        level = np.where(depth[left] <= depth[right], left, right)
        half *= 2


def naive_lca(parent: list[int | None], u: int, v: int) -> int | None:
    """Reference LCA by walking parent chains; ``None`` for separate trees.

    Quadratic and only used to cross-check :class:`ForestLCA` in tests.
    """
    ancestors: set[int] = set()
    x: int | None = u
    while x is not None:
        ancestors.add(x)
        x = parent[x]
    y: int | None = v
    while y is not None:
        if y in ancestors:
            return y
        y = parent[y]
    return None
