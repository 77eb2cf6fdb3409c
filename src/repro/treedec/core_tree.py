"""Core-tree decomposition (Section 4.3).

Given a bandwidth ``d``, the MDE prefix (bags of at most ``d + 1``
nodes) forms a forest ``F`` of small bags, and the residual nodes form the core ``B_c``.
Per eliminated node this module derives the parent ``f(i)``, the root
function ``r(i)``, tree depths, the per-tree *interface* (the core
neighbors ``N_r`` of the root bag — at most ``d`` nodes), and an O(1) LCA
over the forest.  This is the skeleton both CT-Index and the CD baseline
hang their labels on.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import DecompositionError
from repro.graphs.graph import Graph, Weight
from repro.kernels import numpy_available
from repro.treedec.elimination import EliminationResult, minimum_degree_elimination
from repro.treedec.lca import ForestLCA


@dataclasses.dataclass
class CoreTreeDecomposition:
    """The forest/core split produced by bandwidth-bounded MDE.

    All per-node arrays are indexed by *elimination position* (0-based);
    use :attr:`position` to translate node ids.

    Attributes
    ----------
    elimination:
        The underlying bounded MDE run (bags, local distances, core).
    parent:
        ``parent[i]`` is the elimination position of bag ``i``'s parent
        inside the forest, or ``None`` when bag ``i`` is a tree root
        (its parent bag lies in the core, or it has no neighbors).
    root:
        ``root[i]`` — position of the root ``r(i)`` of ``i``'s tree.
    depth:
        ``depth[i]`` — 0 at roots, parent depth + 1 below.
    interface:
        ``interface[r]`` for each root position ``r``: the sorted core
        node ids of ``N_r`` (size <= d by construction).
    """

    elimination: EliminationResult
    parent: list[int | None]
    root: list[int]
    depth: list[int]
    interface: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        self._lca = ForestLCA(self.parent)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The decomposed graph."""
        return self.elimination.graph

    @property
    def bandwidth(self) -> int:
        """The ``d`` this decomposition was built with."""
        assert self.elimination.bandwidth is not None
        return self.elimination.bandwidth

    @property
    def boundary(self) -> int:
        """λ — number of forest (eliminated) nodes."""
        return self.elimination.boundary

    @property
    def core_nodes(self) -> list[int]:
        """Sorted node ids of the core ``B_c``."""
        return self.elimination.core_nodes

    @property
    def position(self) -> list[int | None]:
        """Node id -> elimination position (``None`` for core nodes)."""
        return self.elimination.position

    @property
    def roots(self) -> list[int]:
        """Positions of the tree roots (the root set ``R``)."""
        return sorted(self.interface)

    def forest_height(self) -> int:
        """``h_F`` — the maximum tree height, in nodes (0 if no forest)."""
        if not self.depth:
            return 0
        return max(self.depth) + 1

    def node_at(self, position: int) -> int:
        """Node id eliminated at ``position``."""
        return self.elimination.steps[position].node

    def is_core(self, v: int) -> bool:
        """True when node ``v`` belongs to the core."""
        return self.elimination.is_core(v)

    def tree_of(self, v: int) -> int:
        """Root position of the tree containing forest node ``v``."""
        pos = self.position[v]
        if pos is None:
            raise DecompositionError(f"node {v} is a core node, not a forest node")
        return self.root[pos]

    def interface_of(self, v: int) -> tuple[int, ...]:
        """Interface node ids ``N_{r(v)}`` of forest node ``v``'s tree."""
        return self.interface[self.tree_of(v)]

    def ancestors_of(self, position: int) -> list[int]:
        """Positions on the chain from ``position``'s parent to its root."""
        chain: list[int] = []
        p = self.parent[position]
        while p is not None:
            chain.append(p)
            p = self.parent[p]
        return chain

    def lca(self, pos_u: int, pos_v: int) -> int:
        """Position of the LCA bag of two same-tree positions."""
        return self._lca.lca(pos_u, pos_v)

    def same_tree(self, pos_u: int, pos_v: int) -> bool:
        """True when two positions belong to the same tree of the forest."""
        return self._lca.same_tree(pos_u, pos_v)

    def bag_members(self, position: int) -> tuple[int, ...]:
        """Node ids of bag ``B`` at ``position`` (owner + transient neighbors)."""
        step = self.elimination.steps[position]
        return tuple(sorted((step.node,) + step.neighbors))

    def local_distance(self, position: int, u: int) -> Weight:
        """``δ⁻(u)`` recorded when the node at ``position`` was eliminated."""
        return self.elimination.steps[position].local_distance[u]

    def tree_members(self) -> dict[int, list[int]]:
        """Map root position -> positions of its tree members (incl. root)."""
        members: dict[int, list[int]] = {r: [] for r in self.interface}
        for pos, r in enumerate(self.root):
            members[r].append(pos)
        return members

    def core_graph(self) -> tuple[Graph, list[int]]:
        """Compact weighted core graph ``G_{λ+1}`` (see EliminationResult)."""
        return self.elimination.core_graph()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants of Section 4.3."""
        d = self.bandwidth
        position = self.position
        for pos, step in enumerate(self.elimination.steps):
            if len(step.neighbors) > d:
                raise DecompositionError(
                    f"bag at position {pos} has {len(step.neighbors)} neighbors, "
                    f"but elimination must stop at bandwidth {d}"
                )
            tree_neighbors = [u for u in step.neighbors if position[u] is not None]
            if tree_neighbors:
                expected_parent = min(position[u] for u in tree_neighbors)  # type: ignore[type-var]
                if self.parent[pos] != expected_parent:
                    raise DecompositionError(f"wrong parent at position {pos}")
                for u in tree_neighbors:
                    u_pos = position[u]
                    assert u_pos is not None
                    if u_pos <= pos:
                        raise DecompositionError(
                            f"neighbor {u} of bag {pos} was eliminated earlier (Lemma 2)"
                        )
            else:
                if self.parent[pos] is not None:
                    raise DecompositionError(f"position {pos} should be a root")
        for r, nodes in self.interface.items():
            if self.parent[r] is not None:
                raise DecompositionError(f"interface recorded for non-root {r}")
            if len(nodes) > d:
                raise DecompositionError(
                    f"interface of root {r} has {len(nodes)} > d = {d} nodes"
                )
            if any(not self.is_core(u) for u in nodes):
                raise DecompositionError(f"interface of root {r} contains non-core nodes")


def core_tree_decomposition(
    graph: Graph,
    bandwidth: int,
    *,
    elimination: EliminationResult | None = None,
) -> CoreTreeDecomposition:
    """Build the core-tree decomposition of ``graph`` at ``bandwidth``.

    An existing bounded :class:`EliminationResult` (with matching
    bandwidth) can be supplied to avoid re-running MDE.
    """
    if elimination is None:
        elimination = minimum_degree_elimination(graph, bandwidth=bandwidth)
    elif elimination.bandwidth != bandwidth:
        raise DecompositionError(
            f"elimination was run with bandwidth {elimination.bandwidth}, "
            f"but {bandwidth} was requested"
        )

    boundary = elimination.boundary
    parent = (
        _parents_numpy(elimination) if numpy_available() else _parents_python(elimination)
    )
    root: list[int] = [0] * boundary
    depth: list[int] = [0] * boundary
    interface: dict[int, tuple[int, ...]] = {}

    # Roots and depths need a top-down sweep; parents always have larger
    # positions, so descending position order visits parents first.
    for pos in range(boundary - 1, -1, -1):
        p = parent[pos]
        if p is None:
            root[pos] = pos
            depth[pos] = 0
            step = elimination.steps[pos]
            interface[pos] = tuple(sorted(step.neighbors))
        else:
            root[pos] = root[p]
            depth[pos] = depth[p] + 1

    return CoreTreeDecomposition(
        elimination=elimination,
        parent=parent,
        root=root,
        depth=depth,
        interface=interface,
    )


def _parents_python(elimination: EliminationResult) -> list[int | None]:
    """``f(i)`` per position: the earliest-eliminated tree neighbor."""
    position = elimination.position
    parent: list[int | None] = []
    for step in elimination.steps:
        tree_positions = [position[u] for u in step.neighbors if position[u] is not None]
        parent.append(min(tree_positions) if tree_positions else None)
    return parent


def _parents_numpy(elimination: EliminationResult) -> list[int | None]:
    """:func:`_parents_python` as one ``np.minimum.reduceat`` over the
    neighbor positions (core neighbors count as ``boundary``)."""
    import numpy as np

    from repro.kernels.arrays import neighbor_csr, optional_ids

    boundary = elimination.boundary
    indptr, neighbors = neighbor_csr(elimination)
    at = optional_ids(elimination.position)[neighbors]
    at[at < 0] = boundary
    parent = np.full(boundary, boundary, dtype=np.int64)
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    if rows.size:
        parent[rows] = np.minimum.reduceat(at, indptr[rows])
    # One int object per position, shared by its children's cells.
    ids = np.arange(boundary + 1).astype(object)
    ids[boundary] = None
    return ids[parent].tolist()
