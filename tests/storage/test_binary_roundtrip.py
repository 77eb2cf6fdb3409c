"""Binary snapshot round-trips: every (save backend × load backend ×
format) combination must reproduce the same index, bit for bit by
fingerprint and answer for answer on queries."""

from __future__ import annotations

import math
from array import array

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import (
    index_fingerprint,
    is_binary_snapshot,
    load_ct_index,
    load_ct_index_binary,
    save_ct_index,
    save_ct_index_binary,
)
from repro.exceptions import IndexConstructionError, SerializationError
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.primitives import star_graph
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.graph import Graph
from repro.storage import binary
from repro.graphs.traversal import all_pairs_distances


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    graph = gnp_graph(30, 0.15, seed=21)
    index = CTIndex.build(graph, 4)
    tmp = tmp_path_factory.mktemp("snap")
    json_path = tmp / "index.json"
    binary_path = tmp / "index.ctsnap"
    save_ct_index(index, json_path)
    save_ct_index_binary(index, binary_path)
    return graph, index, json_path, binary_path


class TestRoundTrip:
    def test_detection(self, built):
        _, _, json_path, binary_path = built
        assert is_binary_snapshot(binary_path)
        assert not is_binary_snapshot(json_path)
        assert not is_binary_snapshot(json_path.parent / "missing.ctsnap")

    def test_binary_answers_match_truth(self, built):
        graph, _, _, binary_path = built
        loaded = load_ct_index_binary(binary_path)
        truth = all_pairs_distances(graph)
        for s in graph.nodes():
            for t in graph.nodes():
                assert loaded.distance(s, t) == truth[s][t], (s, t)

    def test_fingerprint_identical_across_all_load_paths(self, built):
        _, index, json_path, binary_path = built
        fingerprints = {
            index_fingerprint(index),
            index_fingerprint(load_ct_index(json_path)),
            index_fingerprint(load_ct_index(json_path, backend="flat")),
            index_fingerprint(load_ct_index(binary_path)),
            index_fingerprint(load_ct_index_binary(binary_path, backend="dict")),
        }
        assert len(fingerprints) == 1

    def test_autodetect_routes_by_magic(self, built):
        _, _, _, binary_path = built
        # The generic loader must open the snapshot without a format flag.
        loaded = load_ct_index(binary_path)
        assert loaded.storage_backend == "flat"

    def test_load_backend_selection(self, built):
        _, _, _, binary_path = built
        assert load_ct_index_binary(binary_path).storage_backend == "flat"
        assert (
            load_ct_index_binary(binary_path, backend="dict").storage_backend
            == "dict"
        )
        assert (
            load_ct_index(binary_path, backend="dict").storage_backend == "dict"
        )

    def test_unknown_load_backend_rejected(self, built):
        _, _, json_path, binary_path = built
        with pytest.raises(SerializationError, match="backend"):
            load_ct_index_binary(binary_path, backend="csr")
        with pytest.raises(IndexConstructionError, match="backend"):
            load_ct_index(json_path, backend="csr")

    def test_save_from_flat_backend(self, built, tmp_path):
        graph, index, _, binary_path = built
        flat = CTIndex.build(graph, 4, backend="flat")
        path = tmp_path / "fromflat.ctsnap"
        save_ct_index_binary(flat, path)
        assert index_fingerprint(load_ct_index(path)) == index_fingerprint(index)

    def test_build_seconds_persisted(self, built, tmp_path):
        graph, _, _, _ = built
        index = CTIndex.build(graph, 4)
        index.build_seconds = 1.25
        path = tmp_path / "seconds.ctsnap"
        save_ct_index_binary(index, path)
        assert load_ct_index(path).build_seconds == 1.25


class TestWeightedAndSpecial:
    def test_integer_weighted_round_trip(self, tmp_path):
        graph = random_weighted(gnp_graph(18, 0.22, seed=5), 1, 7, seed=6)
        index = CTIndex.build(graph, 3)
        path = tmp_path / "intw.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        assert index_fingerprint(loaded) == index_fingerprint(index)
        truth = all_pairs_distances(graph)
        for t in graph.nodes():
            assert loaded.distance(0, t) == truth[0][t]

    def test_float_weighted_round_trip(self, tmp_path):
        base = random_weighted(gnp_graph(15, 0.25, seed=7), 1, 5, seed=8)
        from repro.graphs.builder import GraphBuilder

        builder = GraphBuilder(base.n)
        for u, v, w in base.edges():
            builder.add_edge(u, v, w + 0.5)
        graph = builder.build()
        index = CTIndex.build(graph, 3)
        path = tmp_path / "floatw.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        assert index_fingerprint(loaded) == index_fingerprint(index)
        truth = all_pairs_distances(graph)
        for t in graph.nodes():
            assert loaded.distance(0, t) == truth[0][t]

    def test_infinite_tree_label_round_trips(self, tmp_path):
        index = CTIndex.build(gnp_graph(20, 0.2, seed=6), 3)
        index.to_dict_backend()
        injected = None
        for pos, label in enumerate(index.tree_index.labels):
            if label:
                key = next(iter(label))
                label[key] = math.inf
                injected = (pos, key)
                break
        if injected is None:
            pytest.skip("no tree labels on this build")
        path = tmp_path / "inf.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        pos, key = injected
        assert loaded.tree_index.labels[pos][key] == math.inf

    def test_reduction_survives(self, tmp_path):
        index = CTIndex.build(star_graph(10), 2)
        path = tmp_path / "star.ctsnap"
        save_ct_index_binary(index, path)
        assert load_ct_index(path).distance(1, 2) == 2

    def test_disconnected_graph_round_trips(self, tmp_path):
        from repro.graphs.builder import GraphBuilder

        builder = GraphBuilder(6)
        builder.add_edge(0, 1)
        builder.add_edge(1, 2)
        builder.add_edge(3, 4)
        graph = builder.build()
        index = CTIndex.build(graph, 2)
        path = tmp_path / "disc.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        assert loaded.distance(0, 2) == 2
        assert loaded.distance(0, 3) == math.inf
        assert loaded.distance(5, 0) == math.inf

    @pytest.mark.parametrize("bandwidth", [0, 2, 6])
    def test_bandwidth_sweep(self, tmp_path, bandwidth):
        graph = gnp_graph(25, 0.15, seed=30 + bandwidth)
        index = CTIndex.build(graph, bandwidth)
        path = tmp_path / f"bw{bandwidth}.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        assert loaded.bandwidth == bandwidth
        assert index_fingerprint(loaded) == index_fingerprint(index)


def _reweighted(weight_of) -> Graph:
    base = gnp_graph(14, 0.3, seed=9)
    builder = GraphBuilder(base.n)
    for i, (u, v, _) in enumerate(base.edges()):
        builder.add_edge(u, v, weight_of(i))
    return builder.build()


WRITER_GRAPHS = {
    "unweighted": lambda: gnp_graph(30, 0.15, seed=2),
    "int-weighted": lambda: random_weighted(gnp_graph(20, 0.25, seed=3), 1, 300, seed=4),
    "float": lambda: _reweighted(lambda i: 1.5 + i),
    "unit-floats": lambda: _reweighted(lambda i: 1.0),
    "inf": lambda: _reweighted(lambda i: math.inf if i % 3 == 0 else i + 1),
    "edgeless": lambda: Graph.empty(5),
    "empty": lambda: Graph.empty(0),
}

NARROWING_INPUTS = [
    array("q"),
    array("q", [0, 1, 2]),
    array("q", [-1, 5, 127]),
    array("q", [-129, 4]),
    array("q", [-1, 32768]),
    array("q", [1 << 31, 3]),
    array("q", [-(1 << 62), 1 << 62]),
    array("Q", [255]),
    array("Q", [256, 0]),
    array("I", [70_000]),
    array("Q", [1 << 63]),
    array("B", [3]),
    array("d", [1.5, math.inf]),
]


class TestWriterKernels:
    """The NumPy writer paths emit the pure-Python bytes."""

    @pytest.mark.parametrize("name", sorted(WRITER_GRAPHS))
    def test_put_graph_bytes(self, kernel_state, python_path, name):
        graph = WRITER_GRAPHS[name]()
        written, expected = bytearray(), bytearray()
        binary._put_graph(written, graph)
        python_path(binary._put_graph, expected, graph)
        assert written == expected

    @pytest.mark.parametrize("values", NARROWING_INPUTS, ids=repr)
    def test_narrowed_bytes(self, kernel_state, python_path, values):
        narrowed = binary._narrowed(values)
        expected = python_path(binary._narrowed, values)
        assert narrowed.typecode == expected.typecode
        assert narrowed.tobytes() == expected.tobytes()
        assert list(narrowed) == list(values)

    def test_snapshot_bytes_match_python_build(self, kernel_state, python_path, tmp_path):
        def snapshot(path):
            index = CTIndex.build(gnp_graph(60, 0.05, seed=11), 3)
            index.build_seconds = 1.0
            save_ct_index_binary(index, path)
            return path.read_bytes()

        written = snapshot(tmp_path / "state.ctsnap")
        assert written == python_path(snapshot, tmp_path / "python.ctsnap")


class TestStepNeighborIds:
    """Elimination steps naming a neighbor id outside the reduced graph,
    the step's own node or a repeat are refused at load, in both modes."""

    @pytest.mark.parametrize("mmap", [False, True], ids=["copy", "mmap"])
    @pytest.mark.parametrize("fault", ["negative", "n", "own", "repeat"])
    def test_rejected(self, kernel_state, tmp_path, mmap, fault):
        from repro.treedec.elimination import EliminationStep

        index = CTIndex.build(gnp_graph(30, 0.15, seed=21), 4)
        steps = index.decomposition.elimination.steps
        i = next(i for i, step in enumerate(steps) if step.neighbors)
        step = steps[i]
        n = index.reduction.reduced.n
        bad = {"negative": -1, "n": n, "own": step.node, "repeat": step.neighbors[0]}[fault]
        steps[i] = EliminationStep(
            node=step.node,
            neighbors=step.neighbors + (bad,),
            local_distance={bad: 1, **step.local_distance},
        )
        path = tmp_path / "bad.ctsnap"
        save_ct_index_binary(index, path)
        with pytest.raises(SerializationError, match=f"elimination step {i} lists"):
            load_ct_index(path, mmap=mmap)

    def test_sound_snapshot_loads_in_both_modes(self, kernel_state, built):
        _, index, _, binary_path = built
        for mmap in (False, True):
            loaded = load_ct_index(binary_path, mmap=mmap)
            assert index_fingerprint(loaded) == index_fingerprint(index)
