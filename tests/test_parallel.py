"""Tests for the parallel-map utilities."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as _metrics
from repro.parallel import (
    MAX_WORKERS_ENV,
    chunk_indices,
    effective_workers,
    parallel_map,
)


def _square(x):
    return x * x


class TestChunkIndices:
    def test_even_split(self):
        assert chunk_indices(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_balanced(self):
        spans = chunk_indices(10, 3)
        sizes = [b - a for a, b in spans]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        spans = chunk_indices(2, 10)
        assert spans == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert chunk_indices(0, 3) == [(0, 0)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_indices(-1, 2)
        with pytest.raises(ValueError):
            chunk_indices(5, 0)

    @given(n=st.integers(0, 200), k=st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_spans_cover_range_exactly(self, n, k):
        spans = chunk_indices(n, k)
        covered = [i for a, b in spans for i in range(a, b)]
        assert covered == list(range(n))


class TestEffectiveWorkers:
    def test_none_uses_cpu_count(self):
        assert effective_workers(None) >= 1

    def test_respects_cpu_affinity(self, monkeypatch):
        """A process pinned to fewer CPUs than the host has (a cgroup
        cpuset, ``taskset``) sizes its pools by its affinity mask."""
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5},
                            raising=False)
        assert effective_workers(None) == 2
        assert effective_workers(6) == 2
        assert effective_workers(1) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert effective_workers(None) == 3
        assert effective_workers(8) == 3

    def test_clamped_to_one(self):
        assert effective_workers(0) == 1
        assert effective_workers(-5) == 1

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert effective_workers(8) == 1

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "not-a-number")
        assert effective_workers(2) >= 1

    @pytest.mark.parametrize("bad_cap", ["0", "-3"])
    def test_subserial_env_clamped_to_one_with_warning(
        self, monkeypatch, caplog, bad_cap
    ):
        """Regression: REPRO_MAX_WORKERS<=0 used to propagate into
        ProcessPoolExecutor(max_workers=0) and crash; it must clamp to
        serial and say so."""
        monkeypatch.setenv(MAX_WORKERS_ENV, bad_cap)
        with caplog.at_level("WARNING", logger="repro.parallel"):
            assert effective_workers(8) == 1
        assert any("clamping to 1" in r.message for r in caplog.records)

    def test_noninteger_env_warns(self, monkeypatch, caplog):
        monkeypatch.setenv(MAX_WORKERS_ENV, "many")
        with caplog.at_level("WARNING", logger="repro.parallel"):
            effective_workers(2)
        assert any("non-integer" in r.message for r in caplog.records)


class TestParallelMap:
    def test_serial_matches_map(self):
        items = list(range(20))
        assert parallel_map(_square, items, n_workers=1) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(50))
        serial = parallel_map(_square, items, n_workers=1)
        parallel = parallel_map(_square, items, n_workers=2)
        assert serial == parallel

    def test_empty(self):
        assert parallel_map(_square, [], n_workers=2) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [3], n_workers=4) == [9]

    def test_order_preserved(self):
        items = list(range(100, 0, -1))
        assert parallel_map(_square, items, n_workers=2) == [x * x for x in items]

    def test_gauges_record_requested_vs_effective(self):
        parallel_map(_square, [1, 2, 3], n_workers=1)
        assert _metrics.gauge("parallel.workers_requested").value == 1.0
        assert _metrics.gauge("parallel.workers_effective").value == 1.0
        parallel_map(_square, list(range(8)), n_workers=4)
        assert _metrics.gauge("parallel.workers_requested").value == 4.0
        # The cpu clamp / fork availability decide what was delivered;
        # the point is that the two gauges make the gap observable.
        assert _metrics.gauge("parallel.workers_effective").value >= 1.0
