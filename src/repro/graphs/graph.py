"""Static undirected graph with non-negative edge weights.

The :class:`Graph` type is the substrate every index in this library is
built on.  Nodes are the integers ``0 .. n-1``; the adjacency of each node
is stored as two parallel tuples (neighbor ids sorted ascending, and their
edge weights), which makes neighbor scans cheap and the structure
effectively immutable after construction.

Graphs are *simple*: no self-loops and no parallel edges.  Use
:class:`repro.graphs.builder.GraphBuilder` (or :meth:`Graph.from_edges`)
to normalize raw edge lists into this form.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import Union

from repro.exceptions import GraphError

Weight = Union[int, float]
Edge = tuple[int, int, Weight]

#: Distance value used for unreachable node pairs.
INF = math.inf


class Graph:
    """An undirected, weighted, simple graph on nodes ``0 .. n-1``.

    Instances should be treated as immutable; all mutating workflows go
    through :class:`repro.graphs.builder.GraphBuilder`.
    """

    __slots__ = ("_n", "_m", "_adj_ids", "_adj_weights", "_unweighted")

    def __init__(
        self,
        n: int,
        adjacency: list[list[tuple[int, Weight]]],
        *,
        unweighted: bool,
    ) -> None:
        """Build a graph from a pre-normalized adjacency structure.

        ``adjacency[v]`` must list each neighbor of ``v`` exactly once as a
        ``(neighbor, weight)`` pair, must be symmetric, and must not contain
        self-loops.  Most callers should use :meth:`from_edges` instead,
        which performs that normalization.
        """
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        if len(adjacency) != n:
            raise GraphError(f"adjacency has {len(adjacency)} rows for {n} nodes")
        self._n = n
        adj_ids: list[tuple[int, ...]] = []
        adj_weights: list[tuple[Weight, ...]] = []
        m2 = 0
        for v, row in enumerate(adjacency):
            row = sorted(row)
            ids = tuple(u for u, _ in row)
            for u in ids:
                if not 0 <= u < n:
                    raise GraphError(f"neighbor {u} of node {v} is out of range")
                if u == v:
                    raise GraphError(f"self-loop on node {v}")
            if len(set(ids)) != len(ids):
                raise GraphError(f"parallel edges at node {v}")
            adj_ids.append(ids)
            adj_weights.append(tuple(w for _, w in row))
            m2 += len(ids)
        if m2 % 2 != 0:
            raise GraphError("adjacency is not symmetric (odd half-edge count)")
        self._adj_ids = adj_ids
        self._adj_weights = adj_weights
        self._m = m2 // 2
        self._unweighted = unweighted

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, ...]],
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples.

        Self-loops are dropped; parallel edges keep the minimum weight.
        Missing weights default to 1 and the graph is flagged unweighted
        when every surviving edge has weight exactly 1.
        """
        from repro.graphs.builder import GraphBuilder

        builder = GraphBuilder(n)
        for edge in edges:
            builder.add_edge(*edge)
        return builder.build()

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Return a graph with ``n`` nodes and no edges."""
        return cls(n, [[] for _ in range(n)], unweighted=True)

    @classmethod
    def _from_trusted_rows(
        cls,
        n: int,
        adj_ids: list[tuple[int, ...]],
        adj_weights: list[tuple[Weight, ...]],
        m: int,
        *,
        unweighted: bool,
    ) -> "Graph":
        """Adopt pre-validated sorted adjacency rows without re-checking.

        Internal fast path for loaders that have already enforced the
        simple-graph invariants in bulk (the binary snapshot reader
        checks bounds, weights, loops, and duplicates against
        CRC-verified arrays before calling this).  ``adj_ids[v]`` must
        be strictly ascending and symmetric with ``adj_weights``
        aligned; ``m`` is the edge count.
        """
        graph = cls.__new__(cls)
        graph._n = n
        graph._adj_ids = adj_ids
        graph._adj_weights = adj_weights
        graph._m = m
        graph._unweighted = unweighted
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._m

    @property
    def unweighted(self) -> bool:
        """True when every edge weight is exactly 1."""
        return self._unweighted

    def nodes(self) -> range:
        """All node ids, as a range."""
        return range(self._n)

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v``."""
        self._check_node(v)
        return len(self._adj_ids[v])

    def neighbor_ids(self, v: int) -> tuple[int, ...]:
        """Neighbor ids of ``v``, sorted ascending."""
        self._check_node(v)
        return self._adj_ids[v]

    def neighbor_weights(self, v: int) -> tuple[Weight, ...]:
        """Edge weights aligned with :meth:`neighbor_ids`."""
        self._check_node(v)
        return self._adj_weights[v]

    def neighbors(self, v: int) -> Iterator[tuple[int, Weight]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``v``."""
        self._check_node(v)
        return zip(self._adj_ids[v], self._adj_weights[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge."""
        self._check_node(u)
        self._check_node(v)
        if len(self._adj_ids[u]) > len(self._adj_ids[v]):
            u, v = v, u
        return _binary_contains(self._adj_ids[u], v)

    def edge_weight(self, u: int, v: int) -> Weight:
        """Weight of edge ``{u, v}``; raises :class:`GraphError` if absent."""
        self._check_node(u)
        self._check_node(v)
        ids = self._adj_ids[u]
        idx = _binary_find(ids, v)
        if idx < 0:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        return self._adj_weights[u][idx]

    def edges(self) -> Iterator[Edge]:
        """Iterate over every edge once as ``(u, v, w)`` with ``u < v``."""
        for u in range(self._n):
            ids = self._adj_ids[u]
            weights = self._adj_weights[u]
            for v, w in zip(ids, weights):
                if u < v:
                    yield (u, v, w)

    def csr_arrays(self):
        """The adjacency as NumPy ``(offsets, targets, weights)`` arrays.

        Node ``v``'s row is ``targets[offsets[v] : offsets[v + 1]]``
        (ascending, as :meth:`neighbor_ids`) with aligned ``weights``;
        all three are fresh ``int64`` arrays.  ``weights`` is ``None``
        unless every weight is an ``int`` that fits in 64 bits, so a
        caller never mistakes ``1.0`` or ``INF`` for an integer.
        Requires NumPy.
        """
        import numpy as np

        offsets = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, self._adj_ids), dtype=np.int64, count=self._n),
            out=offsets[1:],
        )
        targets = np.fromiter(
            chain.from_iterable(self._adj_ids), dtype=np.int64, count=2 * self._m
        )
        try:
            packed = array("q", list(chain.from_iterable(self._adj_weights)))
        except (TypeError, OverflowError):
            return offsets, targets, None
        return offsets, targets, np.frombuffer(packed, dtype=np.int64)

    def total_weight(self) -> Weight:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def max_degree(self) -> int:
        """Largest node degree (0 for an empty graph)."""
        if self._n == 0:
            return 0
        return max(len(ids) for ids in self._adj_ids)

    def average_degree(self) -> float:
        """Mean node degree (0.0 for an empty graph)."""
        if self._n == 0:
            return 0.0
        return 2.0 * self._m / self._n

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def induced_subgraph(self, nodes: Iterable[int]) -> tuple["Graph", list[int]]:
        """Return ``(subgraph, originals)`` for the induced subgraph on ``nodes``.

        Subgraph node ``i`` corresponds to original node ``originals[i]``;
        the originals are sorted ascending.  Duplicate input nodes are
        collapsed.
        """
        originals = sorted(set(nodes))
        for v in originals:
            self._check_node(v)
        remap = {v: i for i, v in enumerate(originals)}
        adjacency: list[list[tuple[int, Weight]]] = [[] for _ in originals]
        for i, v in enumerate(originals):
            for u, w in self.neighbors(v):
                j = remap.get(u)
                if j is not None:
                    adjacency[i].append((j, w))
        return Graph(len(originals), adjacency, unweighted=self._unweighted), originals

    def relabeled(self, new_id: list[int]) -> "Graph":
        """Return a copy where original node ``v`` becomes ``new_id[v]``.

        ``new_id`` must be a permutation of ``0 .. n-1``.
        """
        if sorted(new_id) != list(range(self._n)):
            raise GraphError("relabeling is not a permutation of the node ids")
        adjacency: list[list[tuple[int, Weight]]] = [[] for _ in range(self._n)]
        for v in range(self._n):
            row = adjacency[new_id[v]]
            for u, w in self.neighbors(v):
                row.append((new_id[u], w))
        return Graph(self._n, adjacency, unweighted=self._unweighted)

    def with_unit_weights(self) -> "Graph":
        """Return the same topology with all edge weights replaced by 1."""
        adjacency = [[(u, 1) for u in self._adj_ids[v]] for v in range(self._n)]
        return Graph(self._n, adjacency, unweighted=True)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        kind = "unweighted" if self._unweighted else "weighted"
        return f"Graph(n={self._n}, m={self._m}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._adj_ids == other._adj_ids
            and self._adj_weights == other._adj_weights
        )

    def __hash__(self) -> int:
        return hash((self._n, tuple(self._adj_ids)))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"node {v} is out of range for a {self._n}-node graph")


def graph_from_edge_arrays(n: int, us, vs, ws) -> Graph:
    """Assemble a :class:`Graph` from NumPy edge arrays (each edge once).

    ``us``/``vs`` are integer endpoint arrays and ``ws`` the aligned
    weights, integer or float.  Sorting, the bounds/weight/loop/duplicate
    checks and the CSR split all run as array operations, so this is the
    fast array -> ``Graph`` path of the snapshot loader and the twin
    reduction.  Raises :class:`GraphError` on an endpoint outside
    ``0..n-1``, a non-positive weight, a self-loop, or an edge listed
    twice.  Requires NumPy.
    """
    import numpy as np

    u = np.asarray(us).astype(np.int64, copy=False)
    v = np.asarray(vs).astype(np.int64, copy=False)
    w = np.asarray(ws)
    m = len(u)
    if m and not (
        0 <= int(u.min()) and int(u.max()) < n and 0 <= int(v.min()) and int(v.max()) < n
    ):
        raise GraphError(f"edge endpoint outside 0..{n - 1}")
    if m and bool((w <= 0).any()):
        raise GraphError("non-positive edge weight")
    loops = np.nonzero(u == v)[0]
    if loops.size:
        raise GraphError(f"self-loop on node {int(u[loops[0]])}")
    unweighted = bool((w == 1).all())
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    hits = np.nonzero((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))[0]
    if hits.size:
        raise GraphError(f"parallel edges at node {int(src[hits[0]])}")
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=bounds[1:])
    bounds = bounds.tolist()
    ids_flat = dst.tolist()
    adj_ids = [tuple(ids_flat[bounds[i] : bounds[i + 1]]) for i in range(n)]
    if unweighted:
        adj_weights: list[tuple[Weight, ...]] = [(1,) * len(ids) for ids in adj_ids]
    else:
        wt = np.concatenate([w, w])[order].tolist()
        adj_weights = [tuple(wt[bounds[i] : bounds[i + 1]]) for i in range(n)]
    return Graph._from_trusted_rows(n, adj_ids, adj_weights, m, unweighted=unweighted)


def _binary_find(ids: tuple[int, ...], target: int) -> int:
    """Index of ``target`` in the sorted tuple ``ids``, or -1 if absent."""
    lo, hi = 0, len(ids)
    while lo < hi:
        mid = (lo + hi) // 2
        if ids[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(ids) and ids[lo] == target:
        return lo
    return -1


def _binary_contains(ids: tuple[int, ...], target: int) -> bool:
    return _binary_find(ids, target) >= 0
