"""The benchmark's own exact-distance oracle: BFS over an edge list.

The program under test is never consulted.  Distances come from a
level-synchronous multi-source BFS (up to 64 sources share one pass, one
bit each) over a CSR built here from the generated edge list, so checking a
few thousand answers on a 10^5-node graph costs well under a second.
Unreachable pairs have distance ``math.inf``, as the program reports them.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

_ONE = np.uint64(1)
_WORD = 64


class Csr:
    """Undirected adjacency of ``n`` nodes from parallel ``(u, v)`` arrays."""

    def __init__(self, n: int, us, vs) -> None:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        heads = np.concatenate([us, vs])
        tails = np.concatenate([vs, us])
        order = np.argsort(heads, kind="stable")
        self.n = n
        self.indices = tails[order]
        degree = np.bincount(heads, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        self.nonempty = degree > 0
        self.starts = indptr[:-1][self.nonempty]

    @classmethod
    def from_graph(cls, graph) -> "Csr":
        edges = np.asarray([(u, v) for u, v, _ in graph.edges()], dtype=np.int64)
        edges = edges.reshape(-1, 2)
        return cls(graph.n, edges[:, 0], edges[:, 1])


def _levels(csr: Csr, sources):
    """Yield ``(level, new)``: ``new[v]`` has bit ``i`` set when ``v`` is
    first reached from ``sources[i]`` at that BFS level."""
    seen = np.zeros(csr.n, dtype=np.uint64)
    for i, s in enumerate(sources):
        seen[s] |= _ONE << np.uint64(i)
    frontier = seen.copy()
    level = 0
    yield level, frontier
    while True:
        level += 1
        reached = np.zeros(csr.n, dtype=np.uint64)
        if len(csr.starts):
            reached[csr.nonempty] = np.bitwise_or.reduceat(
                frontier[csr.indices], csr.starts
            )
        frontier = reached & ~seen
        if not frontier.any():
            return
        seen |= frontier
        yield level, frontier


def pair_distances(csr: Csr, pairs) -> list[float]:
    """Exact distance of every ``(s, t)`` pair, in input order."""
    result = [math.inf] * len(pairs)
    by_source: dict[int, list[int]] = defaultdict(list)
    for i, (s, _) in enumerate(pairs):
        by_source[s].append(i)
    sources = sorted(by_source)
    for lo in range(0, len(sources), _WORD):
        chunk = sources[lo : lo + _WORD]
        idx = np.asarray([i for s in chunk for i in by_source[s]], dtype=np.int64)
        bits = np.asarray(
            [b for b, s in enumerate(chunk) for _ in by_source[s]], dtype=np.uint64
        )
        targets = np.asarray([pairs[i][1] for i in idx], dtype=np.int64)
        found = np.full(len(idx), -1, dtype=np.int64)
        for level, new in _levels(csr, chunk):
            hit = ((new[targets] >> bits) & _ONE).astype(bool)
            found[hit] = level
            if (found >= 0).all():
                break
        for i, d in zip(idx.tolist(), found.tolist()):
            if d >= 0:
                result[i] = d
    return result


def distance_rows(csr: Csr, sources) -> np.ndarray:
    """``rows[i, v]``: distance from ``sources[i]`` to ``v`` (-1 unreachable)."""
    if len(sources) > _WORD:
        raise ValueError(f"at most {_WORD} sources per call, got {len(sources)}")
    rows = np.full((len(sources), csr.n), -1, dtype=np.int64)
    for level, new in _levels(csr, sources):
        for i in range(len(sources)):
            rows[i, ((new >> np.uint64(i)) & _ONE).astype(bool)] = level
    return rows


class MutationOracle:
    """Distances on the graph states a mutation stream passes through.

    State ``k`` is the base graph after the first ``k`` mutations of a
    stream that adds and then removes each of ``edges`` in turn (unit
    weight): even states are the base graph, odd state ``k`` adds edge
    ``edges[(k // 2) % len(edges)]``.  With one extra edge ``{a, b}``,
    ``d'(s, t) = min(d(s, t), d(s, a) + 1 + d(b, t), d(s, b) + 1 + d(a, t))``.
    """

    def __init__(self, csr: Csr, edges) -> None:
        self.csr = csr
        self.edges = list(edges)
        endpoints = sorted({x for edge in self.edges for x in edge})
        rows = distance_rows(csr, endpoints)
        self._row = {x: rows[i] for i, x in enumerate(endpoints)}

    def _d(self, x: int, v: int) -> float:
        d = self._row[x][v]
        return math.inf if d < 0 else int(d)

    def state_distance(self, s: int, t: int, base: float, k: int) -> float:
        if k % 2 == 0:
            return base
        a, b = self.edges[(k // 2) % len(self.edges)]
        return min(
            base,
            self._d(a, s) + 1 + self._d(b, t),
            self._d(b, s) + 1 + self._d(a, t),
        )

    def wrong(self, answers) -> list[int]:
        """Indices of ``(s, t, got, lo, hi)`` answers that match no state
        ``k`` in ``lo..hi`` (the states in effect between send and reply)."""
        base = pair_distances(self.csr, [(s, t) for s, t, *_ in answers])
        return [
            i
            for i, ((s, t, got, lo, hi), d0) in enumerate(zip(answers, base))
            if all(got != self.state_distance(s, t, d0, k) for k in range(lo, hi + 1))
        ]


def wrong_answers(csr: Csr, answers) -> list[int]:
    """Indices of ``(s, t, got)`` answers that differ from the base graph's."""
    expected = pair_distances(csr, [(s, t) for s, t, _ in answers])
    return [i for i, ((_, _, got), d) in enumerate(zip(answers, expected)) if got != d]
