"""Pruned Landmark Labeling (Akiba et al., [2] in the paper).

PLL fixes a vertex order and runs one *pruned* search per node in order
of importance: when the search from root ``r`` reaches ``v`` at distance
``dv`` and the labels collected so far already certify
``dist(r, v) <= dv``, the branch is pruned; otherwise ``(r, dv)`` joins
``L_v``.  The result is a minimal-ish 2-hop cover whose query is a
sorted-merge over two label arrays.

Both the unweighted (pruned BFS) and weighted (pruned Dijkstra) variants
are provided — the CT core index runs the weighted variant on the
reduced graph ``G_{λ+1}`` whose edges carry λ-local distances.  The
weighted searches also run vectorized over each search's frontier
(:mod:`repro.kernels.pll_search`), label-identical to
:func:`_build_weighted`, the pure-Python reference they are tested
against.
"""

from __future__ import annotations

import heapq
import logging
import time
from collections import deque

from repro.graphs.graph import INF, Graph, Weight
from repro.kernels import KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON, resolve_kernel
from repro.labeling.base import (
    DistanceIndex,
    HubLabelBackendMixin,
    MemoryBudget,
    validate_backend,
)
from repro.labeling.hub_labels import HubLabeling
from repro.labeling.ordering import degree_order, validate_order
from repro.obs.tracing import span as obs_span, tracing_enabled

logger = logging.getLogger(__name__)


class PrunedLandmarkLabeling(HubLabelBackendMixin, DistanceIndex):
    """A built PLL index: thin façade over a hub-label store.

    ``labels`` is a :class:`HubLabeling` (dict backend) or a
    :class:`~repro.storage.flat_labels.FlatLabelStore` (flat backend);
    every query reads through the shared protocol, so the two are
    interchangeable (``compact()`` / ``to_dict_backend()`` convert).
    """

    method_name = "PLL"

    #: Construction path that built the labels: ``"numpy"`` (vectorized
    #: pruned Dijkstra) or ``"python"``; ``None`` when loaded, not built.
    build_kernel: str | None = None

    def __init__(self, graph: Graph, labels: HubLabeling, order: list[int]) -> None:
        self.graph = graph
        self.labels = labels
        self.order = order

    def distance(self, s: int, t: int) -> Weight:
        """Exact distance via label intersection (kernel-dispatched)."""
        return self._query_labels(s, t)

    def size_entries(self) -> int:
        return self.labels.total_entries()

    def max_label_size(self) -> int:
        """``l`` — drives the paper's O(l) query bound."""
        return self.labels.max_label_size()


def build_pll(
    graph: Graph,
    order: list[int] | None = None,
    *,
    budget: MemoryBudget | None = None,
    budget_exempt: frozenset[int] | None = None,
    backend: str = "dict",
    kernel: str = KERNEL_AUTO,
) -> PrunedLandmarkLabeling:
    """Build a PLL index on ``graph``.

    Parameters
    ----------
    graph:
        Input graph; weighted graphs use pruned Dijkstra.
    order:
        Vertex order (most important first); defaults to degree order.
    budget:
        Optional :class:`MemoryBudget`; exceeding it raises
        :class:`~repro.exceptions.OverMemoryError` mid-build.
    budget_exempt:
        Nodes whose label entries do not count against the budget —
        used by PSL*, whose local-minimum label sets exist only during
        construction and never reach the final index.
    backend:
        Label storage of the returned index: ``"dict"`` (mutable
        per-node lists) or ``"flat"`` (CSR arrays, packed after the
        pruned searches finish).  Both answer identically.
    kernel:
        Construction path of the weighted searches (see
        :mod:`repro.kernels`): ``"numpy"`` vectorizes each pruned
        Dijkstra over its frontier (:mod:`repro.kernels.pll_search`),
        ``"python"`` runs the reference heap search, and ``"auto"``
        (default) vectorizes when NumPy is installed.  Both build the
        same labels.  Integer weights totalling at least
        :data:`repro.kernels.psl_rounds._INF` (or non-real weights) run
        the Python search whatever the request; unweighted graphs
        always run the pruned BFS.  The index's ``build_kernel`` says
        which path ran.
    """
    validate_backend(backend)
    resolved = resolve_kernel(kernel, flat=True)
    started = time.perf_counter()
    with obs_span("labeling.pll", n=graph.n, m=graph.m) as pll_span:
        if order is None:
            order = degree_order(graph)
        else:
            validate_order(graph, order)
        if budget is None:
            budget = MemoryBudget.unlimited()
        if budget_exempt is None:
            budget_exempt = frozenset()
        labels = None
        if resolved == KERNEL_NUMPY and not graph.unweighted:
            from repro.kernels.pll_search import build_pruned_dijkstra_labels

            labels = build_pruned_dijkstra_labels(
                graph, order, budget=budget, budget_exempt=budget_exempt
            )
        build_kernel = KERNEL_PYTHON if labels is None else KERNEL_NUMPY
        if labels is None:
            labels = HubLabeling(order)
            if graph.unweighted:
                _build_unweighted(graph, labels, order, budget, budget_exempt)
            else:
                _build_weighted(graph, labels, order, budget, budget_exempt)
        index = PrunedLandmarkLabeling(graph, labels, order)
        index.build_kernel = build_kernel
        if backend == "flat":
            index.compact()
        if tracing_enabled():
            pll_span.set(entries=labels.total_entries(), kernel=index.build_kernel)
    index.build_seconds = time.perf_counter() - started
    logger.debug(
        "PLL built: n=%d m=%d entries=%d max_label=%d in %.3fs",
        graph.n,
        graph.m,
        labels.total_entries(),
        labels.max_label_size(),
        index.build_seconds,
    )
    return index


def _build_unweighted(
    graph: Graph,
    labels: HubLabeling,
    order: list[int],
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
) -> None:
    """One pruned BFS per root, in rank order."""
    dist: list[Weight] = [INF] * graph.n
    for rank, root in enumerate(order):
        root_map = labels.label_rank_map(root)
        queue: deque[int] = deque([root])
        dist[root] = 0
        visited = [root]
        while queue:
            v = queue.popleft()
            dv = dist[v]
            if labels.query_with_map(root_map, v) <= dv:
                continue  # pruned: existing labels already cover (root, v)
            labels.append_entry(v, rank, dv)
            if v not in budget_exempt:
                budget.charge()
            nd = dv + 1
            for u in graph.neighbor_ids(v):
                if dist[u] == INF:
                    dist[u] = nd
                    visited.append(u)
                    queue.append(u)
        for v in visited:
            dist[v] = INF


def _build_weighted(
    graph: Graph,
    labels: HubLabeling,
    order: list[int],
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
) -> None:
    """One pruned Dijkstra per root, in rank order (the Python reference)."""
    dist: list[Weight] = [INF] * graph.n
    for rank, root in enumerate(order):
        root_map = labels.label_rank_map(root)
        heap: list[tuple[Weight, int]] = [(0, root)]
        dist[root] = 0
        visited = [root]
        while heap:
            dv, v = heapq.heappop(heap)
            if dv > dist[v]:
                continue  # stale entry
            if labels.query_with_map(root_map, v) <= dv:
                continue  # pruned
            labels.append_entry(v, rank, dv)
            if v not in budget_exempt:
                budget.charge()
            for u, w in graph.neighbors(v):
                nd = dv + w
                if nd < dist[u]:
                    if dist[u] == INF:
                        visited.append(u)
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        for v in visited:
            dist[v] = INF
