"""NumPy-vectorized pruned Dijkstra for weighted PLL (construction kernel).

:func:`repro.labeling.pll.build_pll` runs one pruned search per root,
in rank order; on a weighted graph each is a pure-Python Dijkstra.
This module runs the *same* searches with each search vectorized over
its frontier, so the labels match the Python search entry for entry
(``index_fingerprint()``-equal, pinned by the tests):

* **Search order.** Roots run in rank order over a CSR copy of the
  graph renumbered to rank space (node id == rank).
* **Pruning bound.** A search from root ``r`` labels ``v`` at ``d`` iff
  ``d < T[v]``, where ``T[v]`` is the 2-hop query between ``L(r)`` and
  ``L(v)`` over the labels committed by earlier roots — exactly what
  :meth:`~repro.labeling.hub_labels.HubLabeling.query_with_map` answers
  in the Python search.  ``T[v]`` is computed once per root, when the
  search first touches ``v``, from ``v``'s node-major label run and a
  rank-indexed copy of ``L(r)``.  With integer weights the searches
  never enter earlier roots: PLL's cover invariant makes ``T[v]`` the
  exact distance there, so the Python search prunes them on arrival.
* **Search.** Each step gathers the edges of the frontier nodes whose
  distance is still ``< T``, reduces the candidate distances per target
  with ``np.minimum.at`` and keeps the improved targets as the next
  frontier.  The fixed point is the pruned Dijkstra's: the shortest
  distances over paths whose inner nodes all beat their bound.
* **Commit.** The touched nodes with ``dist < T`` become root ``r``'s
  block: one entry ``(r, dist)`` each, appended to their label runs and
  charged to the memory budget as one block (an over-budget build
  raises at the same root as the Python search).

Per-root work scales with the nodes a search touches and their label
sizes: the scratch arrays are length ``n`` but only the touched slots
are ever written or reset.  Integer weights run in ``int64`` against
:data:`repro.kernels.psl_rounds._INF`, any other real weights in
``float64`` against ``inf`` (Python and NumPy add doubles identically,
so float distances match too).

This module imports NumPy at module level; import it only after
:func:`repro.kernels.resolve_kernel` has selected the numpy kernel.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.kernels.psl_rounds import _INF
from repro.labeling.base import MemoryBudget
from repro.labeling.hub_labels import HubLabeling

#: Initial per-node capacity of a label run; a full run doubles.
_RUN_CAPACITY = 32


def _rank_space_csr(graph: Graph, order: list[int]):
    """``graph`` renumbered to rank space, or ``None`` for the Python search.

    Returns ``(indptr, keys, adj, weights, inf)``.  Row ``k`` (node
    ``order[k]``) spans ``indptr[k] .. indptr[k+1]`` and lists its
    neighbors by ascending rank ``adj``, so ``keys = k * n + adj`` is
    ascending and one ``searchsorted`` finds where a row's neighbors
    ranked after a given root begin.  Integer weights become ``int64``
    (unreached sentinel ``inf = _INF``), other real weights ``float64``
    (``inf = np.inf``).  Integer weights totalling at least ``_INF``
    (distances could reach the sentinel) and non-real weights fit
    neither and return ``None``.
    """
    n = graph.n
    weights = [w for v in order for w in graph.neighbor_weights(v)]
    try:
        weight_arr = np.asarray(weights)
    except OverflowError:
        return None
    if not weights or weight_arr.dtype.kind in "iu":
        if sum(weights) // 2 >= _INF:
            return None
        weight_arr, inf = weight_arr.astype(np.int64), _INF
    elif weight_arr.dtype.kind == "f":
        weight_arr, inf = weight_arr.astype(np.float64), np.inf
    else:
        return None
    rank = np.empty(n, dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    degrees = np.fromiter(
        (len(graph.neighbor_ids(v)) for v in order), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    ids = np.fromiter(
        (u for v in order for u in graph.neighbor_ids(v)),
        dtype=np.int64,
        count=len(weights),
    )
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, degrees) + rank[ids]
    by_key = np.argsort(keys, kind="stable")
    keys = keys[by_key]
    return indptr, keys, keys % max(n, 1), weight_arr[by_key], inf


class _RunIndexer:
    """Gather indices of variable-length runs, offset by one reused ramp.

    A fresh ``np.arange`` per gather would allocate and fill as many
    elements as the gather itself; slicing a ramp that only grows costs
    nothing.
    """

    def __init__(self) -> None:
        self.ramp = np.arange(1 << 16, dtype=np.int64)

    def __call__(self, starts: np.ndarray, counts: np.ndarray):
        """Concatenated ``counts[i]``-long runs at ``starts[i]``, plus run offsets."""
        ends = np.cumsum(counts)
        offsets = ends - counts
        indices = (starts - offsets).repeat(counts)
        if indices.size > self.ramp.size:
            self.ramp = np.arange(2 * indices.size, dtype=np.int64)
        indices += self.ramp[: indices.size]
        return indices, offsets


def _extended(values: np.ndarray, size: int) -> np.ndarray:
    """A ``size``-long copy of ``values`` with an uninitialized tail."""
    out = np.empty(size, dtype=values.dtype)
    out[: values.size] = values
    return out


class _LabelRuns:
    """Node-major label runs in one arena, each growing by doubling.

    Node ``v``'s run lives at ``start[v] .. start[v] + length[v]``: a
    sentinel entry (hub ``n``, distance 0) and then its label entries,
    hub ranks ascending since roots commit in rank order.  The sentinel
    keeps every run non-empty, so one ``np.minimum.reduceat`` answers a
    batch of 2-hop queries.  A run that fills up moves to the arena's
    end with twice the capacity, so appends cost amortized O(1) per
    entry and never touch other runs.
    """

    def __init__(self, n: int, dtype, indexer: _RunIndexer) -> None:
        self.indexer = indexer
        self.start = np.arange(n, dtype=np.int64) * _RUN_CAPACITY
        self.length = np.ones(n, dtype=np.int64)
        self.capacity = np.full(n, _RUN_CAPACITY, dtype=np.int64)
        self.top = n * _RUN_CAPACITY
        self.hubs = np.empty(self.top, dtype=np.int64)
        self.dists = np.empty(self.top, dtype=dtype)
        self.hubs[self.start] = n
        self.dists[self.start] = 0

    def run(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``v``'s label entries (sentinel excluded), as array views."""
        lo = self.start[v] + 1
        hi = self.start[v] + self.length[v]
        return self.hubs[lo:hi], self.dists[lo:hi]

    def append(self, nodes: np.ndarray, hub: int, dists: np.ndarray) -> None:
        """Append ``(hub, dists[i])`` to the run of each ``nodes[i]``."""
        full = nodes[self.length[nodes] == self.capacity[nodes]]
        if full.size:
            self._grow(full)
        at = self.start[nodes] + self.length[nodes]
        self.hubs[at] = hub
        self.dists[at] = dists
        self.length[nodes] += 1

    def _grow(self, nodes: np.ndarray) -> None:
        capacity = self.capacity[nodes] * 2
        ends = np.cumsum(capacity)
        starts = self.top + ends - capacity
        self.top += int(ends[-1])
        if self.top > self.hubs.size:
            size = max(self.top, 2 * self.hubs.size)
            self.hubs = _extended(self.hubs, size)
            self.dists = _extended(self.dists, size)
        lengths = self.length[nodes]
        src, _ = self.indexer(self.start[nodes], lengths)
        dst, _ = self.indexer(starts, lengths)
        self.hubs[dst] = self.hubs[src]
        self.dists[dst] = self.dists[src]
        self.start[nodes] = starts
        self.capacity[nodes] = capacity

    def to_labeling(self, order: list[int]) -> HubLabeling:
        """The runs as a dict-backend store over the original node ids."""
        hub_ranks: list[list[int]] = [[] for _ in order]
        hub_dists: list[list] = [[] for _ in order]
        for k, v in enumerate(order):
            ranks, dists = self.run(k)
            hub_ranks[v] = ranks.tolist()
            hub_dists[v] = dists.tolist()
        return HubLabeling.from_rank_lists(order, hub_ranks, hub_dists)


def build_pruned_dijkstra_labels(
    graph: Graph,
    order: list[int],
    *,
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
) -> HubLabeling | None:
    """Run every root's pruned search vectorized; returns the labels.

    Labels and the budget's raising root equal those of the Python
    pruned Dijkstra.  Returns ``None``, having charged nothing, when the
    weights fit no dtype (see :func:`_rank_space_csr`): the caller then
    runs the Python search.
    """
    csr = _rank_space_csr(graph, order)
    if csr is None:
        return None
    n = graph.n
    indptr, keys, adj, weights, inf = csr
    degrees = np.diff(indptr)
    # With exact (integer) sums, every earlier root's label already
    # answers its distance to the current root (PLL's cover invariant),
    # so the Python search prunes it wherever it is reached: searches
    # skip the edges into earlier roots outright.  Float sums may round
    # differently from the two ends of a path, so float searches test
    # every node.
    exact = weights.dtype.kind == "i"
    run_indices = _RunIndexer()
    runs = _LabelRuns(n, weights.dtype, run_indices)
    exempt = np.zeros(n, dtype=bool)  # by rank
    if budget_exempt:
        rank = np.empty(n, dtype=np.int64)
        rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
        exempt[rank[np.fromiter(budget_exempt, dtype=np.int64)]] = True
    # Scratch indexed by rank; a search writes and resets only the slots
    # it touches.  root_dist[n] backs the runs' sentinel hub.
    dist = np.full(n, inf, dtype=weights.dtype)
    bound = np.empty(n, dtype=weights.dtype)
    root_dist = np.full(n + 1, inf, dtype=weights.dtype)
    seen = np.full(n, -1, dtype=np.int64)  # last root that touched a node
    slot = np.empty(n, dtype=np.int64)  # dedup scratch

    def bounds(nodes: np.ndarray) -> np.ndarray:
        """2-hop query between the root's label and each node's label."""
        idx, offsets = run_indices(runs.start[nodes], runs.length[nodes])
        return np.minimum.reduceat(root_dist[runs.hubs[idx]] + runs.dists[idx], offsets)

    for root in range(n):
        # Views stay valid: runs only grow past their end or move away.
        root_hubs, root_hub_dists = runs.run(root)
        root_dist[root_hubs] = root_hub_dists
        dist[root] = 0
        seen[root] = root
        # The root's own bound (its label against itself) is positive
        # with positive weights, so the first step relaxes its row.
        bound[root] = 2 * root_hub_dists.min() if root_hub_dists.size else inf
        row_end = indptr[root + 1]
        start = np.searchsorted(keys, root * n + root + 1) if exact else indptr[root]
        if not 0 < bound[root]:
            start = row_end
        frontier = fresh = adj[start:row_end]
        dist[frontier] = weights[start:row_end]
        touched = [np.array([root]), fresh]
        while True:
            if fresh.size:
                seen[fresh] = root
                bound[fresh] = bounds(fresh)
            frontier = frontier[dist[frontier] < bound[frontier]]
            if not frontier.size:
                break
            if exact:
                starts = np.searchsorted(keys, frontier * n + (root + 1))
                counts = indptr[frontier + 1] - starts
            else:
                starts, counts = indptr[frontier], degrees[frontier]
            idx, _ = run_indices(starts, counts)
            targets = adj[idx]
            candidates = dist[frontier].repeat(counts) + weights[idx]
            better = candidates < dist[targets]
            targets = targets[better]
            if not targets.size:
                break
            np.minimum.at(dist, targets, candidates[better])
            # One copy of each improved target: whichever position wins
            # the scatter is the only one that reads itself back.  (The
            # ramp already covers idx, so it covers targets.)
            positions = run_indices.ramp[: targets.size]
            slot[targets] = positions
            frontier = targets[slot[targets] == positions]
            fresh = frontier[seen[frontier] != root]
            touched.append(fresh)
        reached = np.concatenate(touched)
        block = reached[dist[reached] < bound[reached]]
        runs.append(block, root, dist[block])
        charged = int(block.size - np.count_nonzero(exempt[block]))
        if charged:
            budget.charge(charged)
        dist[reached] = inf
        root_dist[root_hubs] = inf
    return runs.to_labeling(order)
