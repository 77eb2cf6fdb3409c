"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

import repro.kernels as kernels
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.primitives import (
    clique_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.graph import Graph
from repro.graphs.traversal import single_source_distances


@pytest.fixture
def paper_graph() -> Graph:
    """The 12-node running example of Figure 1(a).

    Reconstructed from the paper's worked examples: deg(v10) = 4 with
    N(v10) = {v7, v9, v11, v12}; the MDE trace of Examples 3-5 and the
    tree decomposition of Figure 2 pin down the edge set.  Nodes are
    0-based here (paper's v1 is node 0).
    """
    edges_1based = [
        (1, 2),
        (2, 3),
        (3, 4),
        (3, 12),
        (4, 11),
        (5, 8),
        (5, 12),
        (6, 7),
        (6, 8),
        (7, 10),
        (9, 10),
        (9, 11),
        (9, 12),
        (10, 11),
        (10, 12),
        (11, 12),
    ]
    builder = GraphBuilder(12)
    for u, v in edges_1based:
        builder.add_edge(u - 1, v - 1)
    return builder.build()


@pytest.fixture(params=["numpy", "python"])
def kernel_state(request, monkeypatch) -> str:
    """Run a test on the NumPy paths and again without NumPy.

    The ``"python"`` leg sets ``repro.kernels._NUMPY_STATE = False``;
    the ``"numpy"`` leg skips when NumPy is not installed.
    """
    if request.param == "numpy":
        if not kernels.numpy_available():
            pytest.skip("NumPy not installed")
    else:
        monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
    return request.param


@pytest.fixture
def python_path():
    """``call(fn, *args)`` runs ``fn`` with NumPy reported missing.

    Gives the pure-Python reference result whatever ``kernel_state`` a
    test runs under.
    """

    def call(fn, *args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_NUMPY_STATE", False)
            return fn(*args)

    return call


@pytest.fixture
def small_graphs() -> dict[str, Graph]:
    """A zoo of named small graphs used across suites."""
    return {
        "path10": path_graph(10),
        "cycle8": cycle_graph(8),
        "clique6": clique_graph(6),
        "star7": star_graph(7),
        "grid4x5": grid_graph(4, 5),
        "gnp30": gnp_graph(30, 0.15, seed=3),
        "gnp_disconnected": gnp_graph(40, 0.03, seed=4),
        "weighted20": random_weighted(gnp_graph(20, 0.25, seed=5), 1, 9, seed=6),
    }


def exact_distances(graph: Graph) -> list[list]:
    """Ground-truth all-pairs matrix via BFS/Dijkstra."""
    return [single_source_distances(graph, v) for v in graph.nodes()]


def random_connected_graph(n: int, seed: int) -> Graph:
    """A connected-ish random graph (largest component may be used)."""
    from repro.graphs.generators.random_graphs import connected_gnp_graph

    rng = random.Random(seed)
    p = rng.uniform(0.05, 0.3)
    return connected_gnp_graph(n, p, seed)
