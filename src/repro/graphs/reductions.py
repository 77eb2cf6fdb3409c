"""Equivalence-relation elimination (the PSL+ twin reduction).

Two nodes are *twins* when they have identical neighborhoods.  The paper
(Section 7, "Algorithms") keeps a single representative per twin class:
removing a twin cannot change any other pair's distance because every
path through it can be rerouted through its representative at equal
length.  Queries on the reduced graph are mapped back with a constant
amount of bookkeeping:

* **false twins** — ``N(u) = N(v)``, ``u`` and ``v`` not adjacent: two
  distinct class members are at distance 2 (through any shared neighbor);
* **true twins** — ``N(u) ∪ {u} = N(v) ∪ {v}``, adjacent: distance 1.

The reduction is defined for unweighted graphs (all the paper's datasets
are unweighted); weighted inputs are returned unreduced.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from repro.exceptions import GraphError
from repro.graphs.builder import GraphBuilder
from repro.graphs.graph import INF, Graph, Weight, graph_from_edge_arrays
from repro.kernels import KERNEL_NUMPY, KERNEL_PYTHON, numpy_available


@dataclasses.dataclass(frozen=True)
class EquivalenceReduction:
    """Result of :func:`eliminate_equivalent_nodes`.

    Attributes
    ----------
    original:
        The input graph.
    reduced:
        The graph on one representative per twin class.
    representative:
        ``representative[v]`` is the reduced-graph node standing in for
        original node ``v``.
    originals:
        ``originals[i]`` is the original node id kept for reduced node ``i``.
    twin_kind:
        ``twin_kind[v]`` is ``"true"`` / ``"false"`` for nodes folded into
        a multi-member class and ``None`` for singleton classes.
    kernel:
        Which path found the classes: ``"numpy"`` or ``"python"`` (also
        the no-op reductions).  Not part of equality.
    """

    original: Graph
    reduced: Graph
    representative: list[int]
    originals: list[int]
    twin_kind: list[str | None]
    kernel: str = dataclasses.field(default=KERNEL_PYTHON, compare=False)

    @property
    def removed_count(self) -> int:
        """How many nodes the reduction removed."""
        return self.original.n - self.reduced.n

    def class_distance(self, u: int, v: int) -> Weight:
        """Distance between two original nodes sharing a representative."""
        if self.representative[u] != self.representative[v]:
            raise GraphError("nodes are not in the same equivalence class")
        if u == v:
            return 0
        kind = self.twin_kind[u]
        if kind == "true":
            return 1
        if kind == "false":
            # Distinct false twins share every neighbor; an isolated twin
            # class (no neighbors) is disconnected from itself only in the
            # degenerate deg-0 case, which cannot be a multi-member class.
            return 2
        raise GraphError(f"node {u} is not part of a folded twin class")

    def map_distance(self, s: int, t: int, reduced_distance: Weight) -> Weight:
        """Translate a reduced-graph distance back to the original pair.

        ``reduced_distance`` must be the distance between
        ``representative[s]`` and ``representative[t]`` in the reduced
        graph.  Handles the same-representative special case.
        """
        if s == t:
            return 0
        if self.representative[s] == self.representative[t]:
            return self.class_distance(s, t)
        return reduced_distance


def eliminate_equivalent_nodes(graph: Graph) -> EquivalenceReduction:
    """Collapse every twin class of ``graph`` to one representative.

    A single pass folds both false twins (equal open neighborhoods) and
    true twins (equal closed neighborhoods); the smallest id of a class
    is its keeper.  Weighted graphs are returned unreduced because twin
    distances are no longer the constant 1 / 2 the query-time
    correction relies on.

    With NumPy the classes are found by :func:`_eliminate_numpy`; the
    dict grouping of :func:`_eliminate_python` is the fallback and the
    reference both paths must match exactly.
    """
    if not graph.unweighted:
        return reduction_identity(graph)
    if numpy_available():
        offsets, targets, weights = graph.csr_arrays()
        # Unit weights stored as 1.0 keep the reference path, whose
        # reduced graph carries them over unchanged.
        if weights is not None:
            return _eliminate_numpy(graph, offsets, targets)
    return _eliminate_python(graph)


def _eliminate_python(graph: Graph) -> EquivalenceReduction:
    """Dict-grouping twin reduction of an unweighted graph."""
    false_classes: dict[tuple[int, ...], list[int]] = defaultdict(list)
    true_classes: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for v in graph.nodes():
        neighborhood = graph.neighbor_ids(v)
        false_classes[neighborhood].append(v)
        true_classes[_closed_neighborhood(graph, v)].append(v)

    representative = list(range(graph.n))
    twin_kind: list[str | None] = [None] * graph.n
    # False twins first; a node can belong to one false class and one true
    # class, but the classes never mix (members of a false class are
    # pairwise non-adjacent, of a true class pairwise adjacent).
    for neighborhood, members in false_classes.items():
        # Degree-0 nodes share the empty neighborhood but are mutually
        # unreachable, so they must not be folded.
        if len(members) > 1 and neighborhood:
            keeper = members[0]
            for v in members:
                representative[v] = keeper
                twin_kind[v] = "false"
    for members in true_classes.values():
        if len(members) > 1 and all(twin_kind[v] is None for v in members):
            keeper = members[0]
            for v in members:
                representative[v] = keeper
                twin_kind[v] = "true"

    keepers = sorted({representative[v] for v in graph.nodes()})
    compact = {orig: i for i, orig in enumerate(keepers)}
    builder = GraphBuilder(len(keepers))
    for u, v, w in graph.edges():
        ru, rv = representative[u], representative[v]
        if ru != rv:
            builder.add_edge(compact[ru], compact[rv], w)
    reduced = builder.build()
    final_representative = [compact[representative[v]] for v in graph.nodes()]
    return EquivalenceReduction(
        original=graph,
        reduced=reduced,
        representative=final_representative,
        originals=keepers,
        twin_kind=twin_kind,
    )


def _closed_neighborhood(graph: Graph, v: int) -> tuple[int, ...]:
    return tuple(sorted(graph.neighbor_ids(v) + (v,)))


#: Seed of the random per-node weights behind the NumPy row hashes.
_ROW_HASH_SEED = 0x7A1E5


def _row_hash_salts(n: int):
    """Two random 64-bit weights per node; a row hashes to their sums.

    Equal rows always hash alike, so hashing only *proposes* classes;
    :func:`_twin_classes` confirms each by exact comparison.
    """
    import numpy as np

    rng = np.random.default_rng(_ROW_HASH_SEED)
    return rng.integers(0, 1 << 64, size=(2, n), dtype=np.uint64)


def _eliminate_numpy(graph: Graph, bounds, rows) -> EquivalenceReduction:
    """:func:`_eliminate_python` as array operations over a CSR copy.

    Candidate classes are runs of equal ``(row length, two row hashes)``
    over the open rows (false twins, degree > 0) and the closed rows
    (true twins); every member is then compared entry by entry against
    the run's smallest id, and members that differ are regrouped exactly
    by the dict fallback.  A hash collision therefore costs time, never
    a different class.  The reduced graph's edges are mapped and
    deduplicated with ``np.unique``.
    """
    import numpy as np

    n = graph.n
    nodes = np.arange(n, dtype=np.int64)
    degree = np.diff(bounds)
    src = np.repeat(nodes, degree)
    # Closed rows: each open row with its own node inserted in order.
    closed_bounds = bounds + np.arange(n + 1, dtype=np.int64)
    closed = np.empty(len(rows) + n, dtype=np.int64)
    closed[np.arange(len(rows)) + src + (rows > src)] = rows
    closed[closed_bounds[:-1] + np.bincount(src[rows < src], minlength=n)] = nodes

    salts = _row_hash_salts(n)
    open_hash = []
    for salt in salts:
        sums = np.zeros(len(rows) + 1, dtype=np.uint64)
        np.cumsum(salt[rows], out=sums[1:])
        open_hash.append(sums[bounds[1:]] - sums[bounds[:-1]])
    false_of = _twin_classes(rows, bounds, open_hash, degree > 0, graph.neighbor_ids)
    true_of = _twin_classes(
        closed,
        closed_bounds,
        [h + salt for h, salt in zip(open_hash, salts)],
        np.ones(n, dtype=bool),
        lambda v: _closed_neighborhood(graph, v),
    )

    # 0 = singleton, 1 = true twin, 2 = false twin (the snapshot codes).
    kind = np.zeros(n, dtype=np.int8)
    representative = nodes.copy()
    folded = false_of >= 0
    representative[folded] = false_of[folded]
    kind[folded] = 2
    in_true = np.nonzero(true_of >= 0)[0]
    # A true class with a false-folded member stays unfolded.
    blocked = np.zeros(n, dtype=bool)
    blocked[true_of[in_true[folded[in_true]]]] = True
    in_true = in_true[~blocked[true_of[in_true]]]
    representative[in_true] = true_of[in_true]
    kind[in_true] = 1

    kept = representative == nodes
    keepers = np.nonzero(kept)[0]
    final = (np.cumsum(kept) - 1)[representative]
    upper = src < rows
    ru = final[src[upper]]
    rv = final[rows[upper]]
    cross = ru != rv
    lo = np.minimum(ru[cross], rv[cross])
    hi = np.maximum(ru[cross], rv[cross])
    size = len(keepers)
    pairs = np.unique(lo * size + hi)
    reduced = graph_from_edge_arrays(
        size, pairs // size, pairs % size, np.ones(len(pairs), dtype=np.int64)
    )
    kinds = (None, "true", "false")
    return EquivalenceReduction(
        original=graph,
        reduced=reduced,
        representative=final.tolist(),
        originals=keepers.tolist(),
        twin_kind=[kinds[code] for code in kind.tolist()],
        kernel=KERNEL_NUMPY,
    )


def _twin_classes(rows, bounds, hashes, eligible, exact_row):
    """``keeper[v]``: smallest id of ``v``'s class of equal rows, or -1.

    Only ``eligible`` nodes are grouped, and a class needs two members.
    Runs of equal ``(row length, hashes)`` propose the classes; a member
    joins its run's first (smallest) node only if their rows are equal,
    and the members that fail are grouped by ``exact_row`` in a dict.
    """
    import numpy as np

    n = len(bounds) - 1
    keeper = np.full(n, -1, dtype=np.int64)
    length = np.diff(bounds)
    candidates = np.nonzero(eligible)[0]
    if not len(candidates):
        return keeper
    keys = [length, *hashes]
    # lexsort is stable, so each run lists its nodes in ascending order.
    ordered = candidates[np.lexsort([key[candidates] for key in reversed(keys)])]
    starts = np.zeros(len(ordered), dtype=bool)
    starts[0] = True
    for key in keys:
        key = key[ordered]
        starts[1:] |= key[1:] != key[:-1]
    first = ordered[starts][np.cumsum(starts) - 1]
    joins = first != ordered
    members, firsts = ordered[joins], first[joins]
    same = _rows_equal(rows, bounds, members, firsts)
    keeper[members[same]] = firsts[same]
    keeper[firsts[same]] = firsts[same]
    groups: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for v in np.sort(members[~same]).tolist():
        groups[exact_row(v)].append(v)
    for group in groups.values():
        if len(group) > 1:
            keeper[group] = group[0]
    return keeper


def _rows_equal(rows, bounds, left, right):
    """Per pair, whether rows ``left[i]`` and ``right[i]`` (equal lengths) match."""
    import numpy as np

    length = bounds[left + 1] - bounds[left]
    pair = np.repeat(np.arange(len(left)), length)
    within = np.arange(len(pair)) - np.repeat(np.cumsum(length) - length, length)
    differs = rows[bounds[left][pair] + within] != rows[bounds[right][pair] + within]
    same = np.ones(len(left), dtype=bool)
    same[pair[differs]] = False
    return same


def reduction_identity(graph: Graph) -> EquivalenceReduction:
    """A no-op reduction, for code paths that make twin folding optional."""
    identity = list(range(graph.n))
    return EquivalenceReduction(
        original=graph,
        reduced=graph,
        representative=identity,
        originals=identity.copy(),
        twin_kind=[None] * graph.n,
    )


def verify_reduction_distances(reduction: EquivalenceReduction, samples: int = 50) -> None:
    """Assert (via BFS) that the reduction preserves sampled distances.

    Debugging helper used in tests; raises :class:`GraphError` on the
    first mismatch.
    """
    import random

    from repro.graphs.traversal import single_source_distances

    graph = reduction.original
    if graph.n == 0:
        return
    rng = random.Random(0xC0FFEE)
    reduced_cache: dict[int, list[Weight]] = {}
    for _ in range(samples):
        s = rng.randrange(graph.n)
        t = rng.randrange(graph.n)
        truth = single_source_distances(graph, s)[t]
        rs = reduction.representative[s]
        if rs not in reduced_cache:
            reduced_cache[rs] = single_source_distances(reduction.reduced, rs)
        reduced_distance = reduced_cache[rs][reduction.representative[t]]
        mapped = reduction.map_distance(s, t, reduced_distance)
        if mapped != truth and not (mapped == INF and truth == INF):
            raise GraphError(f"reduction broke distance ({s}, {t}): {mapped} != {truth}")
