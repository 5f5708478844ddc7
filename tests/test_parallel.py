"""Tests for the parallel-map utilities."""

from __future__ import annotations

import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel as parallel
from repro.bayesopt import RandomSearch
from repro.core import FrameworkSettings, LoadDynamics, search_space_for
from repro.core.driver import SearchDriver
from repro.obs import metrics as _metrics
from repro.parallel import (
    MAX_WORKERS_ENV,
    WorkerPool,
    chunk_indices,
    effective_workers,
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


def _pool_map(items, n_workers):
    """``_square`` over ``items`` on a fresh ``WorkerPool(n_workers)``."""
    with WorkerPool(n_workers) as pool:
        return pool.map(_square, items)


class TestParallelMap:
    def test_serial_matches_map(self):
        items = list(range(20))
        assert _pool_map(items, 1) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(50))
        serial = _pool_map(items, 1)
        parallel = _pool_map(items, 2)
        assert serial == parallel

    def test_empty(self):
        assert _pool_map([], 2) == []

    def test_single_item_stays_serial(self):
        assert _pool_map([3], 4) == [9]

    def test_order_preserved(self):
        items = list(range(100, 0, -1))
        assert _pool_map(items, 2) == [x * x for x in items]

    def test_gauges_record_requested_vs_effective(self):
        _pool_map([1, 2, 3], 1)
        assert _metrics.gauge("parallel.workers_requested").value == 1.0
        assert _metrics.gauge("parallel.workers_effective").value == 1.0
        _pool_map(list(range(8)), 4)
        assert _metrics.gauge("parallel.workers_requested").value == 4.0
        # The cpu clamp / fork availability decide what was delivered;
        # the point is that the two gauges make the gap observable.
        assert _metrics.gauge("parallel.workers_effective").value >= 1.0


def _tiny_search():
    return LoadDynamics(
        space=search_space_for("gl", "tiny"),
        settings=FrameworkSettings.tiny(max_iters=4, epochs=2),
        optimizer_cls=RandomSearch,
    )


def _series():
    rng = np.random.default_rng(3)
    t = np.arange(200)
    return 50 + 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.0, t.size)


class TestSearchPool:
    """A parallel search runs every round on one worker pool and leaves
    no worker process behind, whether it returns or raises."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(parallel, "_available_cpus", lambda: 2)
        pools = []

        class CountingPool(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        return pools

    def test_one_pool_per_fit_and_none_left_after_return(self, two_cpus):
        _, report = _tiny_search().fit(_series(), n_workers=2)
        assert report.n_trials == 4  # two rounds of two trials
        assert len(two_cpus) == 1
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_raise(self, two_cpus):
        alive = []

        def fail_after_first_trial(self, record):
            alive.append(len(multiprocessing.active_children()))
            raise RuntimeError("search interrupted")

        with mock.patch.object(SearchDriver, "_after_trial",
                               fail_after_first_trial):
            with pytest.raises(RuntimeError, match="search interrupted"):
                _tiny_search().fit(_series(), n_workers=2)
        assert alive == [2]  # the pool was up when the search raised
        assert len(two_cpus) == 1
        assert multiprocessing.active_children() == []

    def test_pool_serves_every_map_until_closed(self, two_cpus):
        with WorkerPool(2) as pool:
            assert pool.map(_square, range(6)) == [x * x for x in range(6)]
            assert pool.map(_square, range(4)) == [x * x for x in range(4)]
            assert len(multiprocessing.active_children()) == 2
        assert len(two_cpus) == 1
        assert multiprocessing.active_children() == []

    def test_failed_start_runs_serial_from_then_on(self, two_cpus, monkeypatch):
        def no_fork(*args, **kwargs):
            two_cpus.append(None)
            raise OSError("fork forbidden")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_fork)
        with WorkerPool(2) as pool:
            assert pool.map(_square, range(5)) == [x * x for x in range(5)]
            assert pool.map(_square, range(3)) == [0, 1, 4]
        assert two_cpus == [None]  # no second start after the failure
        assert _metrics.gauge("parallel.workers_effective").value == 1.0
