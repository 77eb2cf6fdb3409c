"""Workload definitions and the inputs generated from a run's seed.

Every input the program receives is made here, from the workload name and
the ``--seed`` argument alone: the graph (fixed per workload, so that build
times compare across seeds), the query pairs, the hot pairs of the skewed
stream, and the absent edges the mutation stream cycles over.  Nothing is
imported from ``repro.bench``; the generator parameters are copied from the
cp-100k scale tier and the ``fb`` dataset entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

#: Single ``/query`` requests per second in the open-loop serving phase.
OPEN_LOOP_RATE = 200
#: Pairs per ``query_batch`` call and per ``/query/batch`` request.
BATCH_SIZE = 64
#: Hot pairs of the skewed stream, and the share of requests drawn from them.
HOT_PAIRS = 16
HOT_SHARE = 0.9
#: Absent edges the mutation stream adds and removes in turn.
MUTATION_EDGES = 4
#: Share of ``--seconds`` spent in each measured phase.
PHASE_SHARES = {"single": 0.1, "batch": 0.1, "open": 0.5, "closed": 0.3}


def _cp_params(core, density, communities, fringe, *, max_comm):
    return {
        "core_size": core,
        "core_density": density,
        "community_count": communities,
        "community_size_min": 5,
        "community_size_max": max_comm,
        "community_size_exponent": 2.0,
        "community_density": 0.75,
        "community_anchors": 3,
        "fringe_size": fringe,
        "fringe_core_bias": 0.85,
        "fringe_extra_edge_prob": 0.15,
    }


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix over one ``core_periphery_graph``."""

    name: str
    graph_seed: int
    params: dict
    bandwidth: int
    skewed: bool  #: single queries drawn 90% from 16 hot pairs
    #: setup_s and peak_rss_mb describe the server process rather than
    #: the in-process builder/querier.
    server_side: bool
    #: Every this many open-loop requests is a ``/mutate`` (0: no writes).
    #: Each added edge costs the overlay one SSSP refresh per endpoint on
    #: the next query: ~30 ms on fb, ~0.4 s on cp-100k, where any useful
    #: write rate would saturate the engine thread.
    mutate_every: int

    def make_graph(self):
        from repro.graphs.generators.core_periphery import (
            CorePeripheryConfig,
            core_periphery_graph,
        )

        return core_periphery_graph(CorePeripheryConfig(**self.params), self.graph_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "periphery-cp100k", 1303,
            _cp_params(300, 0.12, 120, 96_000, max_comm=60),
            bandwidth=100, skewed=False, server_side=False, mutate_every=0,
        ),
        Workload(
            "serve-fb", 107,
            _cp_params(360, 0.35, 24, 2400, max_comm=60),
            bandwidth=20, skewed=True, server_side=True, mutate_every=100,
        ),
    )
}


def edges_sha256(graph) -> str:
    """Hash of the sorted weighted edge list, so runs compare like inputs."""
    digest = hashlib.sha256(f"n={graph.n};".encode())
    for u, v, w in graph.edges():
        digest.update(f"{u} {v} {w}\n".encode())
    return digest.hexdigest()


def largest_component(graph) -> list[int]:
    """Nodes of the largest connected component, ascending."""
    seen = [False] * graph.n
    best: list[int] = []
    for root in range(graph.n):
        if seen[root]:
            continue
        seen[root] = True
        members, frontier = [root], [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph.neighbor_ids(u):
                    if not seen[v]:
                        seen[v] = True
                        nxt.append(v)
            members.extend(nxt)
            frontier = nxt
        if len(members) > len(best):
            best = members
    return sorted(best)


class Inputs:
    """The streams one run sends.

    The hot pairs and the written edges belong to the workload, like its
    graph, so they are the same for every seed; the seed draws every
    stream of pairs.  Written edges join two nodes of the largest
    component, where a new edge shortens paths and costs the overlay a
    full refresh.
    """

    def __init__(self, workload: Workload, seed: int, graph) -> None:
        self.workload = workload
        self.seed = seed
        self.n = graph.n
        rng = random.Random(f"{workload.name}:hot")
        self.hot = [self._pair(rng) for _ in range(HOT_PAIRS)]
        edges: list[tuple[int, int]] = []
        if workload.mutate_every:
            rng = random.Random(f"{workload.name}:mutation-edges")
            nodes = largest_component(graph)
            while len(edges) < MUTATION_EDGES:
                u, v = rng.sample(nodes, 2)
                key = (min(u, v), max(u, v))
                if not graph.has_edge(u, v) and key not in edges:
                    edges.append(key)
        self.mutation_edges = edges

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.workload.name}:{self.seed}:{purpose}")

    def _pair(self, rng: random.Random) -> tuple[int, int]:
        while True:
            s, t = rng.randrange(self.n), rng.randrange(self.n)
            if s != t:
                return s, t

    def uniform_pairs(self, purpose: str, count: int) -> list[tuple[int, int]]:
        rng = self.rng(purpose)
        return [self._pair(rng) for _ in range(count)]

    def single_pairs(self, purpose: str, count: int) -> list[tuple[int, int]]:
        """The workload's single-query distribution: uniform or skewed."""
        if not self.workload.skewed:
            return self.uniform_pairs(purpose, count)
        rng = self.rng(purpose)
        return [
            self.hot[rng.randrange(HOT_PAIRS)] if rng.random() < HOT_SHARE else self._pair(rng)
            for _ in range(count)
        ]

    def mutation(self, k: int) -> tuple[str, int, int]:
        """The ``k``-th mutation (0-based): add then remove each edge in turn."""
        u, v = self.mutation_edges[(k // 2) % MUTATION_EDGES]
        return ("add" if k % 2 == 0 else "remove", u, v)

    def open_loop_ops(self, seconds: float, part: int = 0, first_mutation: int = 0) -> list[tuple]:
        """``(due_offset_s, op)`` for one open-loop slice.

        ``op`` is ``("query", s, t)`` or ``("mutate", kind, u, v)``; the
        slice's mutations are numbered from ``first_mutation``, spread
        evenly, and even in number, so the patch is empty again when the
        slice ends.
        """
        count = max(1, round(OPEN_LOOP_RATE * seconds))
        every = self.workload.mutate_every
        writes = 2 * round(count / every / 2) if every else 0
        slots = {int((j + 0.5) * count / writes) for j in range(writes)}
        pairs = self.single_pairs(f"open-loop-{part}", count)
        ops, k = [], first_mutation
        for i, pair in enumerate(pairs):
            due = i / OPEN_LOOP_RATE
            if i in slots:
                ops.append((due, ("mutate",) + self.mutation(k)))
                k += 1
            else:
                ops.append((due, ("query",) + pair))
        return ops
