"""The instrumented hot paths: spans emitted, fingerprints untouched."""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.labeling.psl import build_psl
from repro.obs.tracing import capture
from repro.serving.engine import QueryEngine
from repro.storage.binary import load_ct_index_binary, save_ct_index_binary


@pytest.fixture(scope="module")
def graph():
    cfg = CorePeripheryConfig(
        core_size=30,
        community_count=6,
        community_size_min=4,
        community_size_max=20,
        fringe_size=120,
    )
    return core_periphery_graph(cfg, seed=7)


class TestBuildSpans:
    def test_traced_build_emits_the_phase_breakdown(self, graph):
        with obs.observe() as tracer:
            CTIndex.build(graph, 4, backend="flat")
        names = {span.name for span in tracer.finished}
        assert {
            "ct.build",
            "ct.reduction",
            "ct.decompose",
            "treedec.mde",
            "ct.core_labeling",
            "ct.forest_labeling",
            "storage.compact",
            "labeling.pll",
        } <= names
        build_span = next(s for s in tracer.finished if s.name == "ct.build")
        assert build_span.attrs["n"] == graph.n
        assert build_span.attrs["bandwidth"] == 4
        mde = next(s for s in tracer.finished if s.name == "treedec.mde")
        assert mde.attrs["boundary"] + mde.attrs["core"] > 0
        assert "cutoff_degree" in mde.attrs
        # Phase spans nest under the build span.
        by_id = {s.span_id: s for s in tracer.finished}
        assert by_id[mde.parent_id].name == "ct.decompose"

    def test_reduction_span_says_what_ran(self, graph, kernel_state):
        with obs.observe() as tracer:
            index = CTIndex.build(graph, 4)
        reduction = next(s for s in tracer.finished if s.name == "ct.reduction")
        assert reduction.attrs["kernel"] == kernel_state
        assert reduction.attrs["removed"] == index.reduction.removed_count > 0

    def test_psl_levels_traced(self, graph):
        with obs.observe() as tracer:
            build_psl(graph)
        names = [s.name for s in tracer.finished]
        assert "labeling.psl" in names
        levels = [s for s in tracer.finished if s.name == "labeling.psl.level"]
        assert levels
        top = next(s for s in tracer.finished if s.name == "labeling.psl")
        assert top.attrs["rounds"] == len(levels)

    def test_counters_accumulate_only_when_enabled(self, graph):
        registry = obs.registry()
        registry.reset()
        CTIndex.build(graph, 4)
        assert registry.counter("mde.rounds").snapshot() == 0
        with obs.observe():
            CTIndex.build(graph, 4)
        assert registry.counter("mde.rounds").snapshot() > 0
        assert registry.counter("ct.core_label_entries").snapshot() > 0
        assert registry.counter("ct.forest_label_entries").snapshot() > 0

    def test_binary_load_traced(self, graph, tmp_path):
        index = CTIndex.build(graph, 4, backend="flat")
        path = tmp_path / "index.bin"
        save_ct_index_binary(index, path)
        with capture() as tracer:
            loaded = load_ct_index_binary(path)
        load_span = next(s for s in tracer.finished if s.name == "storage.binary_load")
        assert load_span.attrs["backend"] == "flat"
        assert load_span.attrs["bytes"] > 0
        assert index_fingerprint(loaded) == index_fingerprint(index)

    def test_binary_save_traced(self, graph, tmp_path):
        index = CTIndex.build(graph, 4, backend="flat")
        path = tmp_path / "index.bin"
        with capture() as tracer:
            save_ct_index_binary(index, path)
        save_span = next(s for s in tracer.finished if s.name == "storage.binary_save")
        assert save_span.attrs["bytes"] == path.stat().st_size


class TestFingerprintNeutrality:
    def test_tracing_never_changes_the_index(self, graph):
        plain = index_fingerprint(CTIndex.build(graph, 4, backend="flat"))
        with obs.observe():
            traced = index_fingerprint(CTIndex.build(graph, 4, backend="flat"))
        assert traced == plain

    def test_tracing_never_changes_answers(self, graph):
        index = CTIndex.build(graph, 4)
        pairs = [(0, graph.n - 1), (3, 57), (12, 12), (1, 90)]
        plain = [index.distance(s, t) for s, t in pairs]
        with obs.observe():
            traced = [index.distance(s, t) for s, t in pairs]
        assert traced == plain


class TestServingSpans:
    def test_single_query_span_carries_case_attribution(self, graph):
        index = CTIndex.build(graph, 4)
        engine = QueryEngine(index)
        with obs.observe() as tracer:
            engine.query(0, graph.n - 1)
            engine.query_batch([(0, 1), (2, 3)])
            engine.query_from(0, [1, 2, 3])
        names = [s.name for s in tracer.finished]
        assert names == ["serving.query", "serving.query_batch", "serving.query_from"]
        single = tracer.finished[0]
        assert single.attrs["case"] in ("case1", "case2", "case3", "case4", "local")
        assert tracer.finished[1].attrs["size"] == 2
        assert tracer.finished[2].attrs["size"] == 3
