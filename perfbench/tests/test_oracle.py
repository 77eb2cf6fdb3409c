import math
import random
from collections import deque

import pytest

from perfbench.oracle import Csr, MutationOracle, distance_rows, pair_distances


def bfs(n, edges, source):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [math.inf] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def random_graph(rng, n, m):
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def csr_of(n, edges):
    return Csr(n, [u for u, _ in edges], [v for _, v in edges])


@pytest.mark.parametrize("seed", range(5))
def test_pair_distances_match_reference_bfs(seed):
    rng = random.Random(seed)
    # Sparse enough to leave isolated nodes and several components.
    n = 150
    edges = random_graph(rng, n, 120)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(400)]
    got = pair_distances(csr_of(n, edges), pairs)
    # More than 64 distinct sources, so several BFS chunks run.
    assert len({s for s, _ in pairs}) > 64
    assert got == [bfs(n, edges, s)[t] for s, t in pairs]


def test_path_graph_distances_and_unreachable():
    edges = [(0, 1), (1, 2), (2, 3)]
    csr = csr_of(6, edges)
    assert pair_distances(csr, [(0, 3), (3, 0), (2, 2), (0, 5), (4, 5)]) == [
        3, 3, 0, math.inf, math.inf,
    ]
    rows = distance_rows(csr, [0, 5])
    assert rows[0].tolist() == [0, 1, 2, 3, -1, -1]
    assert rows[1].tolist() == [-1, -1, -1, -1, -1, 0]


def test_mutation_oracle_follows_the_add_remove_cycle():
    rng = random.Random(7)
    n = 60
    edges = random_graph(rng, n, 70)
    extra = [(0, 59), (5, 40)]
    extra = [e for e in extra if e not in edges]
    oracle = MutationOracle(csr_of(n, edges), extra)
    for k in range(2 * len(extra) + 2):
        current = list(edges)
        if k % 2:
            current.append(extra[(k // 2) % len(extra)])
        for s in range(0, n, 7):
            expected = bfs(n, current, s)
            base = bfs(n, edges, s)
            for t in range(n):
                assert oracle.state_distance(s, t, base[t], k) == expected[t]


def test_mutation_oracle_accepts_any_state_in_the_window():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    oracle = MutationOracle(csr_of(5, edges), [(0, 4)])
    # State 0: d(0, 4) = 4.  State 1 adds {0, 4}: d = 1.
    answers = [
        (0, 4, 4, 0, 0),
        (0, 4, 1, 1, 1),
        (0, 4, 1, 0, 1),
        (0, 4, 4, 0, 1),
        (0, 4, 1, 0, 0),  # the added edge was not yet acknowledged or sent
        (0, 4, 2, 0, 2),  # no state gives 2
    ]
    assert oracle.wrong(answers) == [4, 5]
