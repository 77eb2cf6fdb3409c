"""Differential cross-check: every oracle answers every pair identically.

For each seeded case graph the suite builds ``CTIndex`` (serial, and on
unweighted graphs a ``workers=2`` PSL-core build), ``PLL``, ``PSL``
(unweighted graphs only), takes
BFS/Dijkstra as ground truth, and compares **all** vertex pairs.  Any
mismatch fails with the case's minimal reproducer — one line of Python
that regenerates the graph — plus the first offending pair, so a sweep
failure is debuggable without re-running the sweep.

Every family is also cross-checked under the CSR ``backend="flat"``
storage: the flat build must answer every pair exactly like the dict
build *and* hash to the same :func:`index_fingerprint` — the
storage-equivalence guarantee behind ``compact()`` and the binary
snapshot format.  When NumPy is installed the vectorized query kernels
(:mod:`repro.kernels`) are cross-checked too: ``kernel="numpy"`` builds
must answer every pair and both batch shapes identically to the scalar
path.

The fast cases run on every tier-1 invocation; the bigger randomized
sweep is marked ``slow`` (run it with ``pytest tests/differential``,
skip it with ``-m "not slow"``).
"""

from __future__ import annotations

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.graphs.traversal import all_pairs_distances
from repro.kernels import numpy_available
from repro.labeling.pll import build_pll
from repro.labeling.psl import build_psl

from tests.differential.cases import FAST_CASES, SLOW_CASES, DifferentialCase


def _check_oracle(case: DifferentialCase, name: str, oracle, truth) -> None:
    graph = oracle.graph
    for s in graph.nodes():
        row = truth[s]
        for t in graph.nodes():
            got = oracle.distance(s, t)
            if got != row[t]:
                pytest.fail(
                    f"{name} disagrees with ground truth on {case.name}: "
                    f"dist({s}, {t}) = {got}, expected {row[t]}.\n"
                    f"Reproducer: {case.reproducer()}"
                )


def _cross_check(case: DifferentialCase) -> None:
    graph = case.build_graph()
    truth = all_pairs_distances(graph)

    _check_oracle(case, "PLL", build_pll(graph), truth)
    _check_oracle(case, "PLL (flat)", build_pll(graph, backend="flat"), truth)
    if graph.unweighted:
        _check_oracle(case, "PSL", build_psl(graph), truth)

    for bandwidth in case.bandwidths:
        serial = CTIndex.build(graph, bandwidth)
        _check_oracle(case, f"CT-{bandwidth} (serial)", serial, truth)

    # Parallel schedule: the PSL core rounds are the one phase workers
    # fan out, and they only run on an unweighted core (bandwidth 0).
    # With NumPy the vectorized rounds run on the shared-memory pool.
    # Answers must match AND the index must be byte-identical to the
    # serial build.
    if graph.unweighted:
        psl_serial = CTIndex.build(graph, 0, core_backend="psl")
        parallel = CTIndex.build(
            graph,
            0,
            core_backend="psl",
            workers=2,
            backend="flat",
            kernel="numpy" if numpy_available() else "python",
        )
        if index_fingerprint(parallel) != index_fingerprint(psl_serial):
            pytest.fail(
                f"CT-0 PSL-core workers=2 build is not byte-identical to "
                f"serial on {case.name}.\nReproducer: {case.reproducer()}"
            )
        _check_oracle(case, "CT-0 PSL core (workers=2)", parallel, truth)

    bandwidth = case.bandwidths[-1]

    # Flat-storage build at the largest bandwidth: same answers, same
    # fingerprint — the CSR backend must be invisible to both the query
    # layer and the serialized document.
    flat = CTIndex.build(graph, bandwidth, backend="flat")
    assert flat.storage_backend == "flat"
    if index_fingerprint(flat) != index_fingerprint(serial):
        pytest.fail(
            f"CT-{bandwidth} backend='flat' build fingerprint differs from "
            f"the dict build on {case.name} — the fingerprint must be "
            f"storage-agnostic.\nReproducer: {case.reproducer()}"
        )
    _check_oracle(case, f"CT-{bandwidth} (flat)", flat, truth)

    # Vectorized kernels (when NumPy is installed): the numpy CT kernel
    # and the numpy label kernel must answer every pair — point and both
    # batch shapes — exactly like the scalar path, across all four CT
    # cases including the Lemma 9 extension.
    if numpy_available():
        fast = CTIndex.build(graph, bandwidth, backend="flat", kernel="numpy")
        assert fast.kernel == "numpy"
        _check_oracle(case, f"CT-{bandwidth} (numpy kernel)", fast, truth)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes for t in nodes]
        expected = [truth[s][t] for s, t in pairs]
        if fast.distances_batch(pairs) != expected:
            pytest.fail(
                f"CT-{bandwidth} numpy distances_batch disagrees with ground "
                f"truth on {case.name}.\nReproducer: {case.reproducer()}"
            )
        source = nodes[len(nodes) // 2]
        if fast.distances_from(source, nodes) != [truth[source][t] for t in nodes]:
            pytest.fail(
                f"CT-{bandwidth} numpy distances_from({source}) disagrees with "
                f"ground truth on {case.name}.\nReproducer: {case.reproducer()}"
            )
        _check_oracle(
            case,
            "PLL (numpy kernel)",
            build_pll(graph, backend="flat").set_kernel("numpy"),
            truth,
        )

    # And converting back must not change a single answer.
    _check_oracle(case, f"CT-{bandwidth} (flat->dict)", flat.to_dict_backend(), truth)


@pytest.mark.parametrize("case", FAST_CASES, ids=lambda c: c.name)
def test_differential_fast(case: DifferentialCase) -> None:
    _cross_check(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", SLOW_CASES, ids=lambda c: c.name)
def test_differential_slow(case: DifferentialCase) -> None:
    _cross_check(case)


def test_reproducer_round_trips() -> None:
    """The printed reproducer regenerates the exact case graph."""
    case = FAST_CASES[0]
    namespace: dict = {}
    exec(case.reproducer(), namespace)  # noqa: S102 - our own string
    regenerated = namespace["graph"]
    original = case.build_graph()
    assert regenerated.n == original.n
    assert list(regenerated.edges()) == list(original.edges())
