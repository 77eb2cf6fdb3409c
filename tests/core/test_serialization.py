"""Unit tests for CT-Index save/load."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import (
    FORMAT_VERSION,
    index_fingerprint,
    load_ct_index,
    save_ct_index,
)
from repro.exceptions import SerializationError
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.traversal import all_pairs_distances

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name!r}")


def strict_loads(text: str):
    """Parse as a strict (RFC 8259) JSON consumer would: no Infinity/NaN."""
    return json.loads(text, parse_constant=_reject_constant)


class TestRoundTrip:
    @pytest.mark.parametrize("bandwidth", [0, 2, 5])
    def test_unweighted_roundtrip(self, tmp_path, bandwidth):
        g = gnp_graph(35, 0.12, seed=1)
        index = CTIndex.build(g, bandwidth)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        loaded = load_ct_index(path)
        assert loaded.bandwidth == bandwidth
        assert loaded.size_entries() == index.size_entries()
        truth = all_pairs_distances(g)
        for s in g.nodes():
            for t in g.nodes():
                assert loaded.distance(s, t) == truth[s][t], (s, t)

    def test_weighted_roundtrip(self, tmp_path):
        g = random_weighted(gnp_graph(20, 0.2, seed=2), 1, 7, seed=3)
        index = CTIndex.build(g, 3)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        loaded = load_ct_index(path)
        truth = all_pairs_distances(g)
        for s in g.nodes():
            for t in g.nodes():
                assert loaded.distance(s, t) == truth[s][t]

    def test_reduction_survives(self, tmp_path):
        from repro.graphs.generators.primitives import star_graph

        index = CTIndex.build(star_graph(10), 2)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        loaded = load_ct_index(path)
        assert loaded.distance(1, 2) == 2  # twin-class distance restored

    def test_build_seconds_persisted(self, tmp_path):
        index = CTIndex.build(gnp_graph(15, 0.2, seed=4), 2)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        assert load_ct_index(path).build_seconds == index.build_seconds


class TestStrictJson:
    """Regression: documents must parse under strict JSON rules even
    when stored weights are ``math.inf`` (previously emitted as the
    non-standard ``Infinity`` literal)."""

    @staticmethod
    def _index_with_infinite_label():
        # Inject an infinity into a tree-label map directly: the round
        # trip must preserve it exactly, whatever produced it.
        index = CTIndex.build(gnp_graph(20, 0.2, seed=6), 3)
        for pos, label in enumerate(index.tree_index.labels):
            if label:
                key = next(iter(label))
                label[key] = math.inf
                return index, pos, key
        pytest.skip("no tree labels on this build")

    def test_output_is_strict_json(self, tmp_path):
        index, _, _ = self._index_with_infinite_label()
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        document = strict_loads(path.read_text())  # raises on Infinity/NaN
        assert document["version"] == FORMAT_VERSION
        assert "Infinity" not in path.read_text()

    def test_infinite_weight_roundtrips_exactly(self, tmp_path):
        index, pos, key = self._index_with_infinite_label()
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        loaded = load_ct_index(path)
        assert loaded.tree_index.labels[pos][key] == math.inf
        assert isinstance(loaded.tree_index.labels[pos][key], float)

    def test_plain_document_strict_and_queryable(self, tmp_path):
        g = gnp_graph(25, 0.15, seed=7)
        index = CTIndex.build(g, 3)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        strict_loads(path.read_text())
        loaded = load_ct_index(path)
        truth = all_pairs_distances(g)
        for t in g.nodes():
            assert loaded.distance(0, t) == truth[0][t]

    def test_version_1_documents_still_load(self, tmp_path):
        # Version 1 wrote weights as raw numbers; the decoder must keep
        # accepting them (sentinel decoding is a no-op on numbers).
        g = gnp_graph(15, 0.25, seed=8)
        index = CTIndex.build(g, 2)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        document = json.loads(path.read_text())
        document["version"] = 1
        path.write_text(json.dumps(document))
        loaded = load_ct_index(path)
        truth = all_pairs_distances(g)
        for t in g.nodes():
            assert loaded.distance(0, t) == truth[0][t]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_ct_index(tmp_path / "absent.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("this is not json")
        with pytest.raises(SerializationError):
            load_ct_index(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SerializationError):
            load_ct_index(path)

    def test_wrong_version(self, tmp_path):
        index = CTIndex.build(gnp_graph(10, 0.3, seed=5), 2)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        document = json.loads(path.read_text())
        document["version"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(SerializationError):
            load_ct_index(path)


class TestUnknownVersions:
    """Regression: a JSON document from a newer (or nonsense) writer must
    raise a :class:`SerializationError` that *names the version found*
    and the versions this build reads — never load half-understood data
    or crash with a KeyError deeper in the decoder."""

    @staticmethod
    def _patched_document(tmp_path, version):
        index = CTIndex.build(gnp_graph(12, 0.3, seed=9), 2)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        document = json.loads(path.read_text())
        document["version"] = version
        path.write_text(json.dumps(document))
        return path

    @pytest.mark.parametrize("version", [3, 4, 99, 2**40, 0, -1, "2", None])
    def test_unknown_version_is_named_in_the_error(self, tmp_path, version):
        path = self._patched_document(tmp_path, version)
        with pytest.raises(SerializationError) as excinfo:
            load_ct_index(path)
        message = str(excinfo.value)
        assert repr(version) in message
        assert "version" in message

    def test_bool_version_rejected(self, tmp_path):
        # bool is an int subclass: `True in {1, 2}` is True, so a naive
        # membership check would accept a `true` version field.
        path = self._patched_document(tmp_path, True)
        with pytest.raises(SerializationError, match="True"):
            load_ct_index(path)

    def test_missing_version_rejected(self, tmp_path):
        index = CTIndex.build(gnp_graph(12, 0.3, seed=9), 2)
        path = tmp_path / "index.json"
        save_ct_index(index, path)
        document = json.loads(path.read_text())
        del document["version"]
        path.write_text(json.dumps(document))
        with pytest.raises(SerializationError, match="None"):
            load_ct_index(path)

    def test_error_mentions_supported_versions(self, tmp_path):
        path = self._patched_document(tmp_path, 7)
        with pytest.raises(SerializationError, match=r"\[1, 2\]"):
            load_ct_index(path)


class TestGoldenFixtures:
    """Checked-in snapshots of both formats (see ``golden/regenerate.py``).

    These pin backward compatibility: today's loader must keep reading
    bytes written by past builds.  If one of these fails after a format
    change, that change broke compatibility — bump the version and add a
    migration path instead of regenerating the fixture.
    """

    BANDWIDTH = 3

    @staticmethod
    def _golden_truth():
        return all_pairs_distances(gnp_graph(20, 0.2, seed=1))

    def test_golden_json_loads_and_answers(self):
        index = load_ct_index(GOLDEN_DIR / "index_v2.json")
        assert index.bandwidth == self.BANDWIDTH
        truth = self._golden_truth()
        for s in index.graph.nodes():
            for t in index.graph.nodes():
                assert index.distance(s, t) == truth[s][t], (s, t)

    @pytest.mark.parametrize("fixture", ["index_v3.ctsnap", "index_v4.ctsnap"])
    def test_golden_binary_loads_and_answers(self, fixture):
        index = load_ct_index(GOLDEN_DIR / fixture)
        assert index.bandwidth == self.BANDWIDTH
        assert index.storage_backend == "flat"
        truth = self._golden_truth()
        for s in index.graph.nodes():
            for t in index.graph.nodes():
                assert index.distance(s, t) == truth[s][t], (s, t)

    @pytest.mark.parametrize("fixture", ["index_v3.ctsnap", "index_v4.ctsnap"])
    def test_golden_fixtures_are_the_same_index(self, fixture):
        from_json = load_ct_index(GOLDEN_DIR / "index_v2.json")
        from_binary = load_ct_index(GOLDEN_DIR / fixture)
        assert index_fingerprint(from_json) == index_fingerprint(from_binary)

    def test_golden_fixtures_match_a_fresh_build(self):
        fresh = CTIndex.build(gnp_graph(20, 0.2, seed=1), self.BANDWIDTH)
        loaded = load_ct_index(GOLDEN_DIR / "index_v2.json")
        assert index_fingerprint(loaded) == index_fingerprint(fresh)

    def test_golden_json_document_is_version_2(self):
        document = json.loads((GOLDEN_DIR / "index_v2.json").read_text())
        assert document["version"] == 2

    def test_golden_binary_headers_pin_their_versions(self):
        from repro.storage.binary import _HEADER, BINARY_FORMAT_VERSION, MAGIC

        for fixture, expected in (("index_v3.ctsnap", 3), ("index_v4.ctsnap", 4)):
            data = (GOLDEN_DIR / fixture).read_bytes()
            magic, version, _count = _HEADER.unpack_from(data, 0)
            assert magic == MAGIC
            assert version == expected
        assert BINARY_FORMAT_VERSION == 4

    def test_golden_v4_fixture_is_smaller_than_v3(self):
        # The point of v4: narrowest-sufficient typecodes shrink the file.
        v3 = (GOLDEN_DIR / "index_v3.ctsnap").stat().st_size
        v4 = (GOLDEN_DIR / "index_v4.ctsnap").stat().st_size
        assert v4 < v3


class TestJsonStepNeighborIds:
    """JSON documents get the binary loader's elimination-step checks."""

    @pytest.mark.parametrize("fault", ["negative", "n", "own", "repeat"])
    def test_rejected(self, tmp_path, fault):
        import json

        from repro.core.ct_index import CTIndex
        from repro.core.serialization import load_ct_index, save_ct_index
        from repro.exceptions import SerializationError
        from repro.graphs.generators.random_graphs import gnp_graph

        index = CTIndex.build(gnp_graph(30, 0.15, seed=21), 4)
        save_ct_index(index, tmp_path / "index.json")
        document = json.loads((tmp_path / "index.json").read_text())
        steps = document["elimination"]["steps"]
        i = next(i for i, step in enumerate(steps) if step["neighbors"])
        step = steps[i]
        n = index.reduction.reduced.n
        bad = {"negative": -1, "n": n, "own": step["node"], "repeat": step["neighbors"][0]}
        step["neighbors"].append(bad[fault])
        step["local_distance"].setdefault(str(bad[fault]), 1)
        (tmp_path / "bad.json").write_text(json.dumps(document))
        with pytest.raises(SerializationError, match=f"elimination step {i} lists"):
            load_ct_index(tmp_path / "bad.json")
