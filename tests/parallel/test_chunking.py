"""Unit tests for the build pool's worker-count resolution."""

from __future__ import annotations

import pytest

from repro.exceptions import IndexConstructionError
from repro.parallel.pool import resolve_workers


class TestResolveWorkers:
    def test_none_and_one_mean_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_literal_counts(self):
        assert resolve_workers(5) == 5

    def test_negative_rejected(self):
        with pytest.raises(IndexConstructionError):
            resolve_workers(-2)
