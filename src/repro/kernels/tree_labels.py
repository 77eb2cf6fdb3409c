"""NumPy level-synchronous forest labels (construction kernel).

:func:`repro.core.construction.compute_tree_labels` builds the λ-local
label of every forest position one position at a time, in descending
elimination order.  Every tree neighbor of a bag is a strict tree
ancestor (Lemma 2), so the recursion of Lemma 15 at one position only
reads labels of shallower positions: all positions at one depth are
independent.  This module computes the labels one depth level at a
time, from the roots down (``h_F`` rounds), with the same candidates
and the same ``min`` as the Python sweep, so the labels match it entry
for entry:

* **Slots.** A position at depth ``L`` has ``L`` ancestor slots (slot
  ``j`` is its ancestor at depth ``j``) followed by one slot per node
  of its root's interface — exactly its label's targets.  The slots of
  all positions form one dense array in position order.
* **Candidates.** A tree neighbor ``u`` at depth ``k`` with
  ``δ = δ⁻(u)`` offers ancestor slot ``j`` the value ``δ + lab[u][j]``
  for ``j < k``, ``δ`` for ``j = k`` and ``δ + lab[anc_j][k]`` for
  ``k < j < L``, and interface slot ``i`` the value
  ``δ + lab[u][k + i]``.  A core neighbor offers ``δ`` to its own
  interface slot.  Each slot keeps the ``min`` of its candidates.
* **Output.** Each position's slots are sorted by target id, giving
  the CSR arrays of :class:`~repro.storage.flat_tree.FlatTreeLabelStore`
  directly.

Integer distances run in ``int64`` against the saturating sentinel
:data:`repro.kernels.psl_rounds._INF`, float distances in ``float64``
against ``inf`` (Python and NumPy add doubles identically).  Mixed or
non-real local distances, integer totals reaching ``_INF`` and
decompositions whose bags break the tree shape are left to the Python
sweep (:func:`tree_label_store` returns ``None``).

This module imports NumPy at module level; import it only after
:func:`repro.kernels.resolve_kernel` has selected the numpy kernel.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.kernels.arrays import neighbor_csr, optional_ids, ranges
from repro.kernels.psl_rounds import _INF
from repro.kernels.views import as_typed_array
from repro.labeling.base import MemoryBudget
from repro.storage.flat_labels import INT_DIST_TYPECODE, OFFSET_TYPECODE
from repro.storage.flat_tree import INF_SENTINEL, FlatTreeLabelStore


def _local_distances(steps) -> tuple[np.ndarray, object] | None:
    """Every ``δ⁻`` in step/neighbor order, with its unreached sentinel."""
    deltas = [step.local_distance[u] for step in steps for u in step.neighbors]
    kinds = set(map(type, deltas))
    if kinds <= {int}:
        if sum(deltas) >= _INF:
            return None
        return np.array(deltas, dtype=np.int64), _INF
    if kinds == {float}:
        return np.array(deltas, dtype=np.float64), np.inf
    return None


def tree_label_store(
    decomposition, budget: MemoryBudget
) -> tuple[FlatTreeLabelStore, int] | None:
    """Every forest label, level by level, as a packed store.

    Returns ``(store, levels)`` — ``levels`` is the number of depth
    rounds swept (``h_F``) — or ``None`` when the Python sweep must
    run instead (see the module docstring); ``None`` is decided before
    ``budget`` is charged.  Label sizes are known up front, so the
    budget is charged per position in descending order before the
    sweep, raising at the same position as the Python sweep.
    """
    elimination = decomposition.elimination
    steps = elimination.steps
    boundary = decomposition.boundary
    found = _local_distances(steps)
    if found is None:
        return None
    delta, inf = found
    indptr, neighbors = neighbor_csr(elimination)
    owner = np.repeat(np.arange(boundary, dtype=np.int64), np.diff(indptr))
    at = optional_ids(decomposition.position)[neighbors]
    depth = np.asarray(decomposition.depth, dtype=np.int64)
    root = np.asarray(decomposition.root, dtype=np.int64)
    parent = optional_ids(decomposition.parent)
    node_of = np.array([step.node for step in steps], dtype=np.int64)

    # Interfaces, concatenated in root order; each is sorted, so the
    # keys ``root * n + node`` ascend.
    roots = sorted(decomposition.interface)
    interfaces = [decomposition.interface[r] for r in roots]
    roots = np.asarray(roots, dtype=np.int64)
    lengths = np.fromiter(map(len, interfaces), dtype=np.int64, count=len(roots))
    interface_len = np.zeros(boundary, dtype=np.int64)
    interface_len[roots] = lengths
    interface_start = np.zeros(boundary, dtype=np.int64)
    interface_start[roots] = np.cumsum(lengths) - lengths
    interface_nodes = np.fromiter(
        chain.from_iterable(interfaces), dtype=np.int64, count=int(lengths.sum())
    )
    n = max(len(decomposition.position), 1)
    interface_keys = np.repeat(roots, lengths) * n + interface_nodes

    # Dense slot layout: ancestors first, then the root's interface.
    own_interface = interface_len[root]
    sizes = depth + own_interface
    offsets = np.zeros(boundary + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    base = offsets[:-1]
    total = int(offsets[-1])

    # A core neighbor must be in its root's interface.
    core = at < 0
    core_owner = owner[core]
    keys = root[core_owner] * n + neighbors[core]
    hit = np.searchsorted(interface_keys, keys)
    if hit.size and (
        hit.max() >= interface_keys.size or (interface_keys[hit] != keys).any()
    ):
        return None
    core_slots = (
        base[core_owner] + depth[core_owner] + hit - interface_start[root[core_owner]]
    )

    # Ancestor table and slot targets, one depth level at a time.  The
    # sweep relies on every tree neighbor being an ancestor of its bag
    # (Lemma 2); a decomposition that breaks it takes the Python sweep.
    height = int(depth.max()) + 1 if boundary else 0
    by_depth = np.argsort(depth, kind="stable")
    level_bounds = np.searchsorted(depth[by_depth], np.arange(height + 1))
    tree = ~core
    tree_owner = owner[tree]
    tree_at = at[tree]
    tree_delta = delta[tree]
    by_owner_depth = np.argsort(depth[tree_owner], kind="stable")
    edge_bounds = np.searchsorted(
        depth[tree_owner][by_owner_depth], np.arange(height + 1)
    )
    ancestor = np.empty(total, dtype=np.int64)
    target = np.empty(total, dtype=np.int64)
    target[ranges(base + depth, own_interface)] = interface_nodes[
        ranges(interface_start[root], own_interface)
    ]
    for level in range(1, height):
        members = by_depth[level_bounds[level] : level_bounds[level + 1]]
        slots = base[members][:, None] + np.arange(level)
        ancestor[slots[:, :-1]] = ancestor[
            base[parent[members]][:, None] + np.arange(level - 1)
        ]
        ancestor[slots[:, -1]] = parent[members]
        target[slots] = node_of[ancestor[slots]]
        edges = by_owner_depth[edge_bounds[level] : edge_bounds[level + 1]]
        via, bag = tree_at[edges], tree_owner[edges]
        k = depth[via]
        if (k >= level).any() or (ancestor[base[bag] + k] != via).any():
            return None
    if tree_at.size and edge_bounds[1] > 0:
        return None  # a root bag with a tree neighbor

    if budget.limit_bytes is None:
        budget.charge(total)
    else:
        for size in sizes[::-1].tolist():
            budget.charge(size)

    label = np.full(total + 1, inf, dtype=delta.dtype)
    zero = total  # label[zero] stays 0: the "j = k" candidate is δ + 0
    label[zero] = 0
    np.minimum.at(label, core_slots, delta[core])
    for level in range(1, height):
        edges = by_owner_depth[edge_bounds[level] : edge_bounds[level + 1]]
        via, bag, step_delta = tree_at[edges], tree_owner[edges], tree_delta[edges]
        k = depth[via][:, None]
        j = np.arange(level)
        bag_base = base[bag][:, None]
        through = base[ancestor[bag_base + j]] + k
        source = np.where(j < k, base[via][:, None] + j, through)
        source[j == k] = zero
        candidates = label[source] + step_delta[:, None]
        span = own_interface[bag]
        interface_source = ranges(base[via] + depth[via], span)
        interface_candidates = label[interface_source] + np.repeat(step_delta, span)
        slots = np.concatenate(
            ((bag_base + j).ravel(), ranges(base[bag] + level, span))
        )
        values = np.concatenate((candidates.ravel(), interface_candidates))
        if inf is _INF:
            np.minimum(values, _INF, out=values)
        np.minimum.at(label, slots, values)
        del candidates, interface_candidates, source, through, slots, values

    del ancestor
    key = np.repeat(np.arange(boundary, dtype=np.int64) * n, sizes)
    key += target
    order = np.argsort(key)
    del key
    targets = as_typed_array(OFFSET_TYPECODE, target[order])
    del target
    label = label[order]
    del order
    if inf is _INF or total == 0:
        label = label.astype(np.int64, copy=False)
        label[label == _INF] = INF_SENTINEL
        dists = as_typed_array(INT_DIST_TYPECODE, label)
    else:
        dists = as_typed_array("d", label)
    del label
    offsets = as_typed_array(OFFSET_TYPECODE, offsets)
    return FlatTreeLabelStore(offsets, targets, dists, validate=False), height

