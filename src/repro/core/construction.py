"""CT-Index construction — Algorithm 1 of the paper.

The pipeline:

1. bandwidth-bounded weighted MDE (lines 1-17, in
   :mod:`repro.treedec.elimination`);
2. core-tree structure: parents ``f(i)``, roots ``r(i)``, interfaces
   (lines 18-28, in :mod:`repro.treedec.core_tree`);
3. **tree-index**: λ-local distances from every forest node to its tree
   ancestors and to its tree's interface (lines 19-32, this module);
4. **core-index**: PLL (pruned Dijkstra) on the weighted reduced graph
   ``G_{λ+1}`` (line 33), vectorized over each search's frontier when
   NumPy is installed (:mod:`repro.kernels.pll_search`).

The recursion of Lemma 15 gives the λ-local distance from ``v_i`` to a
target ``u`` as either the recorded wedge weight ``δ⁻(u)`` (when
``u ∈ N_i``) or a route through a tree neighbor ``v_j`` as
``δ⁻(v_j) + δ^T(v_j, u)``.  Every tree neighbor is a strict tree
ancestor (Lemma 2), so a label only reads labels of shallower
positions.  With NumPy installed the labels are computed level by
level, from the roots down: one vectorized round per depth level
(:mod:`repro.kernels.tree_labels`).  :func:`compute_tree_labels` is the
pure-Python oracle: it walks the positions in *reverse* elimination
order, so every label it reads is already final.  Both build the same
labels entry for entry.
"""

from __future__ import annotations

import logging
import time

import repro.obs as obs
from repro.exceptions import IndexConstructionError
from repro.graphs.graph import INF, Graph, Weight
from repro.kernels import KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON, resolve_kernel
from repro.labeling.base import MemoryBudget
from repro.labeling.ordering import degree_order
from repro.labeling.pll import PrunedLandmarkLabeling, build_pll
from repro.obs.tracing import span as obs_span
from repro.treedec.core_tree import CoreTreeDecomposition, core_tree_decomposition

logger = logging.getLogger(__name__)


class TreeIndex:
    """The forest half of a CT-Index: λ-local distance labels.

    ``labels[pos]`` maps every *target* of the forest node eliminated at
    ``pos`` — its ancestors within its tree plus its tree's interface
    nodes — to the λ-local distance δ^T.  It is either the dict
    backend's ``list[dict]`` or a packed
    :class:`~repro.storage.flat_tree.FlatTreeLabelStore`; both expose
    the same mapping-per-position view.

    ``build_kernel`` says which path computed the labels (``"numpy"``
    or ``"python"``); it is ``None`` for a loaded index.
    """

    def __init__(self, decomposition: CoreTreeDecomposition, labels) -> None:
        self.decomposition = decomposition
        self.labels = labels
        self.build_kernel: str | None = None
        # Flat stores answer point lookups directly (one bisect) instead
        # of materializing a mapping view per probe.
        self._local_get = getattr(labels, "local_get", None)

    @property
    def storage_backend(self) -> str:
        """``"dict"`` or ``"flat"`` — how the labels are stored now."""
        return getattr(self.labels, "storage_backend", "dict")

    def size_entries(self) -> int:
        """Stored (target, distance) pairs."""
        if hasattr(self.labels, "total_entries"):
            return self.labels.total_entries()
        return sum(len(label) for label in self.labels)

    def local_distance(self, pos: int, target: int) -> Weight:
        """δ^T from the node at ``pos`` to ``target`` (0 for itself).

        ``target`` must be one of the node's stored targets (an ancestor
        in its tree, an interface node, or the node itself); anything
        else returns INF, which is safe for the min-combining callers.
        """
        if self.decomposition.node_at(pos) == target:
            return 0
        if self._local_get is not None:
            return self._local_get(pos, target, INF)
        return self.labels[pos].get(target, INF)


def compute_tree_labels(
    decomposition: CoreTreeDecomposition, budget: MemoryBudget
) -> list[dict[int, Weight]]:
    """The λ-local label of every forest position, in position order.

    Positions are processed in descending order, so the recursion of
    Lemma 15 only ever reads labels of tree ancestors that are already
    final.  Each label is charged to ``budget`` as soon as it is built,
    so an over-budget build raises mid-sweep.
    """
    elimination = decomposition.elimination
    position = decomposition.position
    node_at = decomposition.node_at
    labels: list[dict[int, Weight]] = [{} for _ in range(decomposition.boundary)]

    def lookup(pos_j: int, target: int) -> Weight:
        """δ^T(v_j, target), reading whichever endpoint stores the pair.

        Targets on the ancestor chain of the node being processed are
        comparable with ``v_j``: one of the two is the other's ancestor
        and therefore stores the distance (interface targets are always
        stored at ``v_j``).
        """
        node_j = node_at(pos_j)
        if node_j == target:
            return 0
        stored = labels[pos_j].get(target)
        if stored is not None:
            return stored
        pos_target = position[target]
        if pos_target is None:
            raise IndexConstructionError(
                f"interface target {target} missing from labels of position {pos_j}"
            )
        return labels[pos_target][node_j]

    for pos in range(decomposition.boundary - 1, -1, -1):
        step = elimination.steps[pos]
        root = decomposition.root[pos]
        interface = decomposition.interface[root]
        label: dict[int, Weight] = {}

        if decomposition.parent[pos] is None:
            # Root bag: every neighbor is an interface (core) node and the
            # recorded wedge weight is already the λ-local distance
            # (Lemma 14 / line 25).
            label.update(step.local_distance)
        else:
            tree_neighbors = [
                (u, position[u]) for u in step.neighbors if position[u] is not None
            ]
            # Line 29-30: targets that are direct neighbors.
            for u in step.neighbors:
                best = step.local_distance[u]
                for v_j, pos_j in tree_neighbors:
                    if v_j == u:
                        continue
                    assert pos_j is not None
                    through = step.local_distance[v_j] + lookup(pos_j, u)
                    if through < best:
                        best = through
                label[u] = best
            # Line 31-32: remaining targets (ancestors beyond N_i and the
            # rest of the interface).
            chain_targets = [node_at(p) for p in decomposition.ancestors_of(pos)]
            for u in _iter_missing(chain_targets, interface, label):
                best: Weight = INF
                for v_j, pos_j in tree_neighbors:
                    assert pos_j is not None
                    through = step.local_distance[v_j] + lookup(pos_j, u)
                    if through < best:
                        best = through
                label[u] = best
        budget.charge(len(label))
        labels[pos] = label
    return labels


def build_tree_index(
    decomposition: CoreTreeDecomposition,
    *,
    budget: MemoryBudget | None = None,
    kernel: str = KERNEL_AUTO,
) -> TreeIndex:
    """Compute the λ-local distance labels (Algorithm 1, lines 19-32).

    ``kernel`` picks the path as :func:`~repro.labeling.pll.build_pll`
    does: ``"numpy"`` (or ``"auto"`` with NumPy installed) runs the
    level-synchronous sweep of :mod:`repro.kernels.tree_labels`,
    ``"python"`` the oracle :func:`compute_tree_labels`.  Mixed or
    non-real local distances and integer totals reaching
    :data:`repro.kernels.psl_rounds._INF` run the oracle whatever the
    request.  Both build the same labels; the index's ``build_kernel``
    says which path ran.
    """
    if budget is None:
        budget = MemoryBudget.unlimited()
    resolved = resolve_kernel(kernel, flat=True)
    with obs_span(
        "ct.forest_labeling", boundary=decomposition.boundary
    ) as forest_span:
        built = None
        if resolved == KERNEL_NUMPY:
            from repro.kernels.tree_labels import tree_label_store

            built = tree_label_store(decomposition, budget)
        if built is None:
            index = TreeIndex(decomposition, compute_tree_labels(decomposition, budget))
            index.build_kernel, levels = KERNEL_PYTHON, None
        else:
            store, levels = built
            index = TreeIndex(decomposition, store.to_dicts())
            index.build_kernel = KERNEL_NUMPY
        if obs.tracing_enabled():
            forest_span.set(
                entries=index.size_entries(), kernel=index.build_kernel, levels=levels
            )
    if obs.enabled():
        obs.registry().counter("ct.forest_label_entries").inc(index.size_entries())
    return index


def _iter_missing(
    chain_targets: list[int], interface: tuple[int, ...], label: dict[int, Weight]
):
    """Targets of lines 31-32: chain ancestors and interface not yet labeled."""
    for u in chain_targets:
        if u not in label:
            yield u
    for u in interface:
        if u not in label:
            yield u


def build_core_index(
    decomposition: CoreTreeDecomposition,
    *,
    budget: MemoryBudget | None = None,
    order: str | None = None,
    core_backend: str = "pll",
    workers: int | None = None,
    kernel: str = KERNEL_AUTO,
    hopdb_order: str = "degree",
) -> tuple[PrunedLandmarkLabeling, list[int], dict[int, int]]:
    """2-hop labeling on the weighted reduced core graph ``G_{λ+1}`` (line 33).

    ``order`` selects the hub order: ``"degree"`` (the practical
    default, as in PSL) or ``"elimination"`` — the reverse of a continued
    MDE run over the core, the order behind the paper's Theorem 4.4
    bound and the one its Figure 5 example uses.  ``"is"`` is accepted
    for symmetry with :func:`construct`, where it selects independent-set
    periphery elimination; the core hubs then use degree order (IS-LABEL
    has no distinguished hub order of its own).

    ``core_backend`` selects the construction schedule — the paper's
    line 33 says "PLL (or PSL equivalently)".  ``"psl"`` uses the
    round-synchronous propagation when the core graph is unweighted
    (d = 0, no fill-in shortcuts); ``"hopdb"`` the hop-doubling label
    composition of :mod:`repro.labeling.hopdb` (also unweighted-only,
    suited to scale-free cores).  Both fall back to pruned-Dijkstra PLL
    on weighted cores, since their rounds count hops.  Every backend
    builds the same canonical label sets, so the choice never changes a
    fingerprint.

    ``kernel`` selects the construction path of the PLL searches and the
    PSL rounds (vectorized vs pure Python; ``"auto"`` vectorizes when
    NumPy is installed); hopdb ignores it.  ``workers`` fans the
    vectorized PSL rounds out over worker processes (see
    :mod:`repro.parallel`); PLL and hopdb ignore it: a pruned search
    depends on every earlier root's finished label, so PLL's roots run
    one after another, and hopdb runs its own composition loop.

    The returned labeling records what actually ran: ``core_backend``
    (``"pll"`` whenever a ``"psl"``/``"hopdb"`` request met a weighted
    core) and ``build_kernel`` (``"numpy"`` or ``"python"``).  Both are
    reported by the ``ct.core_labeling`` span and
    :meth:`CTIndex.stats() <repro.core.ct_index.CTIndex.stats>`.

    ``hopdb_order`` tunes the hub order of the ``"hopdb"`` backend:
    ``"degree"`` (the default; fingerprint-identical to the other
    backends) or ``"psl-rank"`` (degree refined by neighbor degree
    mass, :func:`repro.labeling.ordering.psl_rank_order`).  A non-degree
    order changes which canonical label set is built — still an exact
    2-hop cover, but no longer byte-identical to the degree-ordered
    one, which is why the knob is hopdb-specific and exactness-gated
    (BFS) rather than fingerprint-gated in the benches.

    Returns ``(core_labeling, originals, compact)``: the 2-hop index
    over the compacted core graph, the original node id per compact id,
    and the reverse map.
    """
    order = order or "degree"
    if hopdb_order not in ("degree", "psl-rank"):
        raise IndexConstructionError(
            f"unknown hopdb_order {hopdb_order!r}; expected 'degree' or 'psl-rank'"
        )
    if hopdb_order != "degree" and core_backend != "hopdb":
        raise IndexConstructionError(
            f"hopdb_order={hopdb_order!r} tunes the hopdb backend; it cannot "
            f"be combined with core_backend={core_backend!r}"
        )
    with obs_span(
        "ct.core_labeling", order=order, core_backend=core_backend
    ) as core_span:
        core_graph, originals = decomposition.core_graph()
        if order in ("degree", "is"):
            hub_order = degree_order(core_graph)
        elif order == "elimination":
            from repro.treedec.elimination import minimum_degree_elimination

            continued = minimum_degree_elimination(core_graph, bandwidth=None)
            hub_order = list(reversed(continued.eliminated_order()))
        else:
            raise IndexConstructionError(
                f"unknown core order {order!r}; expected 'degree', "
                f"'elimination', or 'is'"
            )
        if core_backend not in ("pll", "psl", "hopdb"):
            raise IndexConstructionError(
                f"unknown core backend {core_backend!r}; expected 'pll', "
                f"'psl', or 'hopdb'"
            )
        if core_backend == "psl" and core_graph.unweighted:
            from repro.labeling.psl import build_psl

            psl = build_psl(
                core_graph,
                hub_order,
                budget=budget,
                workers=workers,
                kernel=kernel,
            )
            labeling = PrunedLandmarkLabeling(core_graph, psl.labels, psl.order)
            labeling.build_seconds = psl.build_seconds
            labeling.build_kernel = psl.build_kernel
            labeling.round_stats = psl.round_stats
            labeling.core_backend = "psl"
        elif core_backend == "hopdb" and core_graph.unweighted:
            from repro.labeling.hopdb import build_hopdb

            if hopdb_order == "psl-rank":
                from repro.labeling.ordering import psl_rank_order

                hub_order = psl_rank_order(core_graph)
            hop = build_hopdb(core_graph, hub_order, budget=budget)
            labeling = PrunedLandmarkLabeling(core_graph, hop.labels, hop.order)
            labeling.build_seconds = hop.build_seconds
            labeling.build_kernel = KERNEL_PYTHON
            labeling.core_backend = "hopdb"
        else:
            labeling = build_pll(core_graph, hub_order, budget=budget, kernel=kernel)
            labeling.core_backend = "pll"
        if obs.tracing_enabled():
            core_span.set(
                core_n=core_graph.n,
                entries=labeling.size_entries(),
                effective_core_backend=labeling.core_backend,
                core_kernel=labeling.build_kernel,
            )
    if obs.enabled():
        obs.registry().counter("ct.core_label_entries").inc(labeling.size_entries())
    compact = {orig: i for i, orig in enumerate(originals)}
    return labeling, originals, compact


def construct(
    graph: Graph,
    bandwidth: int,
    *,
    budget: MemoryBudget | None = None,
    order: str | None = None,
    core_backend: str = "pll",
    workers: int | None = None,
    kernel: str = KERNEL_AUTO,
    hopdb_order: str = "degree",
) -> tuple[CoreTreeDecomposition, TreeIndex, PrunedLandmarkLabeling, list[int], dict[int, int], float]:
    """Run the full Algorithm 1 and return all the pieces plus build time.

    ``order="is"`` swaps the periphery elimination from bounded MDE to
    the IS-LABEL-style independent-set rounds of
    :func:`repro.treedec.elimination.independent_set_elimination` (each
    round eliminates a maximal independent set of low-degree nodes at
    once); the core hubs then use degree order.  Any other ``order``
    value keeps MDE and selects the core hub order as in
    :func:`build_core_index`.

    ``kernel`` reaches the forest labels (:func:`build_tree_index`) and
    the core labeling's PLL searches and PSL rounds, ``workers`` only
    the vectorized PSL rounds (see :func:`build_core_index`); neither
    changes any label, and every other phase is serial.
    ``hopdb_order`` tunes the hopdb backend's hub order.
    """
    order = order or "degree"
    started = time.perf_counter()
    if budget is None:
        budget = MemoryBudget.unlimited()
    with obs_span("ct.decompose", n=graph.n, bandwidth=bandwidth, order=order):
        if order == "is":
            from repro.treedec.elimination import independent_set_elimination

            elimination = independent_set_elimination(graph, bandwidth)
            decomposition = core_tree_decomposition(
                graph, bandwidth, elimination=elimination
            )
        else:
            decomposition = core_tree_decomposition(graph, bandwidth)
    tree_index = build_tree_index(decomposition, budget=budget, kernel=kernel)
    core_index, originals, compact = build_core_index(
        decomposition,
        budget=budget,
        order=order,
        core_backend=core_backend,
        workers=workers,
        kernel=kernel,
        hopdb_order=hopdb_order,
    )
    elapsed = time.perf_counter() - started
    logger.debug(
        "CT constructed: d=%d lambda=%d core=%d h_F=%d tree_entries=%d "
        "core_entries=%d in %.3fs",
        bandwidth,
        decomposition.boundary,
        len(decomposition.core_nodes),
        decomposition.forest_height(),
        tree_index.size_entries(),
        core_index.size_entries(),
        elapsed,
    )
    return decomposition, tree_index, core_index, originals, compact, elapsed
