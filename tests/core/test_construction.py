"""Unit tests for CT-Index construction (Algorithm 1, lines 18-33)."""

from __future__ import annotations

import pytest

from repro.core.construction import build_core_index, build_tree_index, construct
from repro.exceptions import OverMemoryError
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.graph import INF
from repro.labeling.base import MemoryBudget
from repro.treedec.core_tree import core_tree_decomposition


class TestPaperTreeIndex:
    """Figure 5 / Examples 6, 7, 10 pin down the exact tree labels."""

    @pytest.fixture
    def tree_index(self, paper_graph):
        return build_tree_index(core_tree_decomposition(paper_graph, 2))

    def label_1based(self, tree_index, node_1based):
        pos = tree_index.decomposition.position[node_1based - 1]
        return {k + 1: v for k, v in tree_index.labels[pos].items()}

    def test_v5_label(self, tree_index):
        # Example 7: v5 has ancestor {v8: 1} and interfaces {v10: 4, v12: 1}.
        assert self.label_1based(tree_index, 5) == {8: 1, 10: 4, 12: 1}

    def test_v7_label(self, tree_index):
        # Example 6: the 8-local distance from v7 to v12 is 4.
        assert self.label_1based(tree_index, 7) == {8: 2, 10: 1, 12: 4}

    def test_v6_label(self, tree_index):
        # Example 10 uses δT(v6, v10) = 2 and δT(v6, v12) = 3.
        assert self.label_1based(tree_index, 6) == {7: 1, 8: 1, 10: 2, 12: 3}

    def test_v8_root_label(self, tree_index):
        # Figure 5: v8 (a root) stores only its interface {v10: 3, v12: 2}.
        assert self.label_1based(tree_index, 8) == {10: 3, 12: 2}

    def test_v1_label(self, tree_index):
        # Figure 5 row for v1: ancestors {v2, v3, v4} and interface.
        assert self.label_1based(tree_index, 1) == {2: 1, 3: 2, 4: 3, 11: 4, 12: 3}

    def test_size_entries(self, tree_index):
        assert tree_index.size_entries() == sum(len(lbl) for lbl in tree_index.labels)

    def test_local_distance_self_zero(self, tree_index):
        pos = tree_index.decomposition.position[4]  # v5
        assert tree_index.local_distance(pos, 4) == 0

    def test_local_distance_unknown_target_inf(self, tree_index):
        pos = tree_index.decomposition.position[0]  # v1
        assert tree_index.local_distance(pos, 8) == INF  # v9 not a target


class TestCoreIndex:
    def test_core_index_over_reduced_graph(self, paper_graph):
        decomposition = core_tree_decomposition(paper_graph, 2)
        core_index, originals, compact = build_core_index(decomposition)
        assert [v + 1 for v in originals] == [9, 10, 11, 12]
        assert compact[originals[0]] == 0
        # Example 8: dist(v11, v12) = 1 in G_{λ+1}.
        assert core_index.distance(compact[10], compact[11]) == 1
        # Example 9 uses dist_{G9}(v10, v11) = 1 and dist_{G9}(v12, v11) = 1.
        assert core_index.distance(compact[9], compact[10]) == 1

    def test_weighted_core_graph(self):
        g = gnp_graph(40, 0.1, seed=1)
        decomposition = core_tree_decomposition(g, 3)
        core_graph, _ = decomposition.core_graph()
        core_index, _, _ = build_core_index(decomposition)
        assert core_index.graph == core_graph


class TestConstruct:
    def test_construct_returns_consistent_pieces(self):
        g = gnp_graph(50, 0.12, seed=2)
        decomposition, tree_index, core_index, originals, compact, elapsed = construct(g, 4)
        assert tree_index.decomposition is decomposition
        assert len(originals) == len(decomposition.core_nodes)
        assert elapsed > 0

    def test_budget_shared_across_phases(self):
        g = gnp_graph(60, 0.15, seed=3)
        with pytest.raises(OverMemoryError):
            construct(g, 4, budget=MemoryBudget(limit_bytes=200))

    def test_weighted_input(self):
        g = random_weighted(gnp_graph(30, 0.15, seed=4), 1, 6, seed=5)
        decomposition, tree_index, core_index, _, _, _ = construct(g, 3)
        assert decomposition.boundary + len(decomposition.core_nodes) == g.n


class TestEffectiveCoreConfig:
    """What built the core labels is reported beside what was requested."""

    @pytest.fixture(scope="class")
    def fb(self):
        from repro.bench.datasets import load_dataset

        return load_dataset("fb")

    def test_psl_request_on_weighted_fb_core_reports_pll(self, fb):
        import repro.kernels as kernels
        from repro.core.ct_index import CTIndex

        index = CTIndex.build(fb, 20, core_backend="psl")
        extra = index.stats().extra
        assert extra["effective_core_backend"] == "pll"
        expected = "numpy" if kernels.numpy_available() else "python"
        assert extra["core_kernel"] == expected

    def test_unweighted_core_reports_the_requested_backend(self):
        from repro.core.ct_index import CTIndex

        g = gnp_graph(40, 0.15, seed=2)
        psl = CTIndex.build(g, 0, core_backend="psl").stats().extra
        hopdb = CTIndex.build(g, 0, core_backend="hopdb").stats().extra
        pll = CTIndex.build(g, 0, core_backend="pll", kernel="python").stats().extra
        assert psl["effective_core_backend"] == "psl"
        assert hopdb["effective_core_backend"] == "hopdb"
        assert hopdb["core_kernel"] == "python"
        assert (pll["effective_core_backend"], pll["core_kernel"]) == ("pll", "python")

    def test_spans_carry_the_effective_fields(self):
        import repro.obs as obs
        from repro.core.ct_index import CTIndex

        g = random_weighted(gnp_graph(40, 0.15, seed=3), 1, 5, seed=3)
        with obs.observe() as tracer:
            index = CTIndex.build(g, 2, core_backend="hopdb", kernel="python")
        core = next(s for s in tracer.finished if s.name == "ct.core_labeling")
        pll = next(s for s in tracer.finished if s.name == "labeling.pll")
        assert core.attrs["core_backend"] == "hopdb"
        assert core.attrs["effective_core_backend"] == "pll"
        assert core.attrs["core_kernel"] == pll.attrs["kernel"] == "python"
        assert index.stats().extra["effective_core_backend"] == "pll"

    def test_snapshots_do_not_record_them(self, tmp_path):
        import repro.kernels as kernels
        from repro.core.ct_index import CTIndex
        from repro.core.serialization import index_fingerprint, load_ct_index
        from repro.storage.binary import save_ct_index_binary

        g = random_weighted(gnp_graph(50, 0.12, seed=4), 1, 7, seed=4)
        fast = CTIndex.build(g, 3)
        slow = CTIndex.build(g, 3, kernel="python")
        if kernels.numpy_available():
            assert fast.stats().extra["core_kernel"] == "numpy"
        assert index_fingerprint(fast) == index_fingerprint(slow)
        fast.build_seconds = slow.build_seconds = 0.0  # the one timed field
        save_ct_index_binary(fast, tmp_path / "fast.bin")
        save_ct_index_binary(slow, tmp_path / "slow.bin")
        assert (tmp_path / "fast.bin").read_bytes() == (tmp_path / "slow.bin").read_bytes()
        loaded = load_ct_index(tmp_path / "fast.bin")
        assert "effective_core_backend" not in loaded.stats().extra
        assert "core_kernel" not in loaded.stats().extra
