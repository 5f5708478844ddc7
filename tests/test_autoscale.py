"""Tests for the cloud simulator, policies, and summaries."""

from __future__ import annotations

import contextlib
import json
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.autoscale import (
    CloudSimulator,
    OraclePolicy,
    PredictivePolicy,
    ReactivePolicy,
    VMSpec,
    summarize,
)
from repro.autoscale import cloudsim
from repro.autoscale.cloudsim import _BLOCK_JOBS, _pairwise_reduce
from repro.baselines.naive import MeanPredictor
from repro.obs import metrics as _metrics
from repro.parallel import MAX_WORKERS_ENV

GOLDEN = Path(__file__).parent / "data" / "cloudsim_golden.json"


def hex64(a: np.ndarray) -> str:
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes().hex()


def oracle_run(spec: VMSpec, seed: int, arrivals, provisioned):
    """The plain per-interval replay: one ``uniform`` per busy interval.

    Returns the per-interval arrays, ``vm_seconds`` and the
    ``autoscale.step`` payloads that ``CloudSimulator.run`` must match
    bit for bit.
    """
    a = np.ceil(np.asarray(arrivals, dtype=np.float64)).astype(np.int64)
    p = np.ceil(np.asarray(provisioned, dtype=np.float64)).astype(np.int64)
    rng = np.random.default_rng(seed)
    turnaround = np.zeros(a.size)
    makespan = np.zeros(a.size)
    over = np.maximum(p - a, 0).astype(np.float64)
    vm_seconds = 0.0
    steps = []
    for i in range(a.size):
        jobs, prov = int(a[i]), int(p[i])
        if jobs == 0:
            vm_seconds += float(prov) * spec.job_seconds
            steps.append({"interval": i, "arrivals": 0, "provisioned": prov,
                          "cold_starts": 0, "idle_vms": prov,
                          "turnaround_s": 0.0})
            continue
        warm = min(jobs, prov)
        cold = jobs - warm
        durations = spec.job_seconds * (
            1.0 + spec.job_jitter_frac * (2.0 * rng.uniform(size=jobs) - 1.0)
        )
        completion = durations.copy()
        if cold > 0:
            waves = 1 + np.arange(cold) // spec.max_concurrent_startups
            completion[warm:] += spec.startup_seconds * waves
        turnaround[i] = float(np.mean(completion))
        makespan[i] = float(np.max(completion))
        vm_seconds += float(np.sum(completion))
        vm_seconds += float(over[i]) * spec.job_seconds
        steps.append({"interval": i, "arrivals": jobs, "provisioned": prov,
                      "cold_starts": cold, "idle_vms": int(over[i]),
                      "turnaround_s": turnaround[i], "makespan_s": makespan[i]})
    return turnaround, makespan, vm_seconds, steps


@contextlib.contextmanager
def serial_replay():
    """Replays inside run as one span, as ``REPRO_MAX_WORKERS=1`` asks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(MAX_WORKERS_ENV, "1")
        yield


@contextlib.contextmanager
def forced_split(workers: int):
    """Replays inside split into up to ``workers`` spans however few
    jobs they hold and however many cores the host has."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cloudsim, "_SPAN_MIN_JOBS", 1)
        mp.setattr(cloudsim, "effective_workers", lambda: workers)
        yield


def replay_spans() -> int:
    """Span count of the last replay, from its metrics gauge."""
    return int(_metrics.gauge("autoscale.replay_spans").value)


def replay_leaf_jobs() -> int:
    """Per-span buffer budget of the last replay, from its metrics gauge."""
    return int(_metrics.gauge("autoscale.replay_leaf_jobs").value)


@pytest.fixture
def spec():
    return VMSpec(startup_seconds=100.0, job_seconds=200.0, job_jitter_frac=0.0)


class TestVMSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            VMSpec(startup_seconds=-1.0)
        with pytest.raises(ValueError):
            VMSpec(job_seconds=0.0)
        with pytest.raises(ValueError):
            VMSpec(job_jitter_frac=1.0)
        with pytest.raises(ValueError):
            VMSpec(max_concurrent_startups=0)


class TestSimulator:
    def test_perfect_provisioning_no_startup_cost(self, spec):
        arrivals = np.array([5.0, 3.0, 8.0])
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(arrivals, arrivals)
        np.testing.assert_allclose(res.turnaround_seconds, 200.0)
        assert res.underprovision_rate == 0.0
        assert res.overprovision_rate == 0.0

    def test_underprovisioning_adds_startup(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([4.0]), np.array([2.0]))
        # 2 warm jobs at 200s; 2 cold jobs at 200+100 (one startup wave).
        assert res.turnaround_seconds[0] == pytest.approx((2 * 200 + 2 * 300) / 4)
        assert res.makespan_seconds[0] == pytest.approx(300.0)
        assert res.underprovision_rate == pytest.approx(50.0)

    def test_startup_waves_throttled(self):
        spec = VMSpec(
            startup_seconds=100.0,
            job_seconds=200.0,
            job_jitter_frac=0.0,
            max_concurrent_startups=2,
        )
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([5.0]), np.array([0.0]))
        # Cold jobs 0,1 wait one wave (100s); 2,3 two waves; 4 three waves.
        assert res.makespan_seconds[0] == pytest.approx(200.0 + 3 * 100.0)

    def test_overprovisioning_counts_idle(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([2.0]), np.array([6.0]))
        assert res.overprovision_rate == pytest.approx(200.0)
        assert res.underprovision_rate == 0.0
        # vm time: 2 jobs * 200s + 4 idle * 200s
        assert res.vm_seconds == pytest.approx(2 * 200 + 4 * 200)

    def test_zero_arrival_interval(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([0.0, 3.0]), np.array([2.0, 3.0]))
        assert res.turnaround_seconds[0] == 0.0
        assert res.mean_turnaround == pytest.approx(200.0)  # only interval 2

    def test_fractional_counts_rounded_up(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([2.4]), np.array([1.2]))
        assert res.arrivals[0] == 3.0 and res.provisioned[0] == 2.0

    def test_jitter_reproducible(self):
        spec = VMSpec(job_jitter_frac=0.2)
        a = CloudSimulator(spec=spec, seed=5).run(np.array([10.0]), np.array([10.0]))
        b = CloudSimulator(spec=spec, seed=5).run(np.array([10.0]), np.array([10.0]))
        np.testing.assert_array_equal(a.turnaround_seconds, b.turnaround_seconds)

    def test_length_mismatch(self, spec):
        with pytest.raises(ValueError):
            CloudSimulator(spec=spec).run(np.ones(3), np.ones(4))

    def test_negative_counts_rejected(self, spec):
        with pytest.raises(ValueError):
            CloudSimulator(spec=spec).run(np.array([-1.0]), np.array([1.0]))

    def test_two_dimensional_input_rejected(self, spec):
        """An (N, D) trace is refused up front, naming the shape."""
        with pytest.raises(ValueError, match=r"\(2, 1\).*target_channel"):
            CloudSimulator(spec=spec).run(
                np.array([[3.0], [4.0]]), np.array([[3.0], [2.0]])
            )
        with pytest.raises(ValueError, match=r"1-D"):
            CloudSimulator(spec=spec).run(np.ones(2), np.ones((2, 1)))
        with pytest.raises(ValueError, match=r"1-D"):
            CloudSimulator(spec=spec).run(np.float64(3.0), np.float64(2.0))

    def test_empty_result_rates_are_zero_without_warnings(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = CloudSimulator(spec=spec).run(np.array([]), np.array([]))
            assert res.n_intervals == 0
            assert res.mean_turnaround == 0.0
            assert res.underprovision_rate == 0.0
            assert res.overprovision_rate == 0.0
            assert res.vm_seconds == 0.0

    @given(
        arrivals=arrays(np.float64, 10, elements=st.floats(0, 30)),
        provisioned=arrays(np.float64, 10, elements=st.floats(0, 30)),
    )
    @settings(max_examples=30, deadline=None)
    def test_turnaround_at_least_job_time(self, arrivals, provisioned):
        spec = VMSpec(job_jitter_frac=0.0)
        res = CloudSimulator(spec=spec, seed=1).run(arrivals, provisioned)
        busy = res.arrivals > 0
        assert np.all(res.turnaround_seconds[busy] >= spec.job_seconds - 1e-9)

    @given(arrivals=arrays(np.float64, 8, elements=st.floats(0, 20)))
    @settings(max_examples=30, deadline=None)
    def test_oracle_provisioning_is_optimal(self, arrivals):
        """No schedule can beat provisioning exactly the arrivals."""
        spec = VMSpec(job_jitter_frac=0.0)
        sim = CloudSimulator(spec=spec, seed=2)
        oracle = sim.run(arrivals, np.ceil(arrivals))
        assert oracle.underprovision_rate == 0.0
        assert oracle.overprovision_rate <= 100.0  # ceil() surplus only


class TestBitExactReplay:
    """``CloudSimulator.run`` reproduces the per-interval formula's bytes.

    The replay is elementwise numpy over PCG64 draws with no LAPACK, so
    equality is on raw bits (the bit-exact fixture class): against
    recordings made with the per-interval implementation, and against
    that implementation kept here as ``oracle_run``.
    """

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(GOLDEN.read_text())

    def test_golden_bytes(self, golden):
        # As shipped: every golden case is below the split threshold.
        self.check_golden_bytes(golden, workers=None)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_golden_bytes_split(self, golden, workers):
        self.check_golden_bytes(golden, workers)

    def test_golden_cases_cross_the_block(self, golden, monkeypatch):
        self.check_walks(golden, monkeypatch, workers=None)

    def test_golden_cases_cross_the_block_split(self, golden, monkeypatch):
        self.check_walks(golden, monkeypatch, workers=3)

    @staticmethod
    def check_golden_bytes(golden, workers):
        """Every recorded case replays to its bytes, as shipped or cut
        into up to ``workers`` spans on threads."""
        assert golden["bit_generator"] == type(
            np.random.default_rng().bit_generator
        ).__name__
        spans = []
        with forced_split(workers) if workers else contextlib.nullcontext():
            for case in golden["cases"]:
                sim = CloudSimulator(spec=VMSpec(**case["spec"]),
                                     seed=case["seed"])
                res = sim.run(np.asarray(case["arrivals"], dtype=np.float64),
                              np.asarray(case["provisioned"], dtype=np.float64))
                spans.append(replay_spans())
                for key in ("turnaround_seconds", "makespan_seconds",
                            "under_provisioned", "over_provisioned"):
                    assert hex64(getattr(res, key)) == case[key], (
                        case["name"], key
                    )
                assert float(res.vm_seconds).hex() == case["vm_seconds"], (
                    case["name"]
                )
        assert max(spans) == (workers or 1), spans

    @staticmethod
    def check_walks(golden, monkeypatch, workers):
        """The recorded cases still exercise the block boundaries and the
        walk of an interval larger than the buffer, as shipped or cut
        into spans that share the buffer budget."""
        cases = {case["name"]: case for case in golden["cases"]}
        small = np.ceil(cases["many_small_cross_block"]["arrivals"])
        assert small.max() < _BLOCK_JOBS < small.sum()
        assert max(cases["one_over_block"]["arrivals"]) > _BLOCK_JOBS

        # Interval sizes the simulator walks: the outermost calls only,
        # since the walk recurses through the same module name.  Spans
        # run on their own threads, so the recursion depth is kept per
        # thread and the sizes per span, joined in span order.
        walked, local = {}, threading.local()
        replay_span = cloudsim._replay_span

        def recording(lo, hi, **kwargs):
            local.walked, local.depth = walked.setdefault(lo, []), 0
            return replay_span(lo, hi, **kwargs)

        def counting(lo, hi, leaf_jobs, leaf):
            if not local.depth:
                local.walked.append(hi - lo)
            local.depth += 1
            try:
                return _pairwise_reduce(lo, hi, leaf_jobs, leaf)
            finally:
                local.depth -= 1

        monkeypatch.setattr(cloudsim, "_replay_span", recording)
        monkeypatch.setattr(cloudsim, "_pairwise_reduce", counting)
        with forced_split(workers) if workers else contextlib.nullcontext():
            for name in ("large_intervals", "one_over_block",
                         "many_small_cross_block"):
                walked.clear()
                case = cases[name]
                CloudSimulator(spec=VMSpec(**case["spec"]), seed=case["seed"]).run(
                    np.asarray(case["arrivals"]), np.asarray(case["provisioned"])
                )
                assert len(walked) == replay_spans(), name
                # Cuts fall only between intervals: one_over_block's
                # 300k-job interval leaves room for two spans, not three.
                assert replay_spans() in ((2, 3) if workers else (1,)), name
                block = _BLOCK_JOBS // replay_spans()
                big = [int(a) for a in case["arrivals"] if a > block]
                assert [n for lo in sorted(walked) for n in walked[lo]] == big, name

    # 1 << 16 is each span's leaf when four spans share the buffer budget.
    @pytest.mark.parametrize(
        "leaf_jobs", [128, 1 << 13, _BLOCK_JOBS // 4, _BLOCK_JOBS]
    )
    def test_pairwise_walk_matches_ndarray_sum(self, leaf_jobs):
        """The walk adds leaf sums exactly as numpy's pairwise sum adds a
        contiguous run.  A numpy release that changes ``pairwise_sum``
        fails here by name, not only as a golden-byte diff."""
        rng = np.random.default_rng(leaf_jobs)
        b = _BLOCK_JOBS
        lengths = (
            [1, 2, 5, 7, 8, 9, 127, 128, 129, 1000, 1023, 4097]
            + [1 << k for k in (10, 13, 16, 17, 19)]
            + [b - 1, b + 1, 2 * b, 2 * b + 5, 3 * b + 1, 5 * b + 7, 8 * b + 3]
            + rng.integers(9_000, 2_000_000, 8).tolist()
        )
        for n in lengths:
            x = rng.random(n) * rng.uniform(1.0, 500.0) + rng.uniform(0.0, 600.0)
            total, peak = _pairwise_reduce(
                0, n, leaf_jobs, lambda lo, hi: (x[lo:hi].sum(), x[lo:hi].max())
            )
            assert total.hex() == x.sum().hex(), (
                f"n={n}, leaf_jobs={leaf_jobs}: tree walk {total!r} != "
                f"ndarray.sum {x.sum()!r} under numpy {np.__version__}; "
                f"its pairwise summation no longer splits as "
                f"cloudsim._pairwise_reduce assumes"
            )
            assert peak == x.max()

    @given(
        intervals=st.lists(
            st.tuples(
                st.one_of(
                    st.just(0),
                    st.integers(1, 60),
                    st.sampled_from([_BLOCK_JOBS // 2 + 1, _BLOCK_JOBS - 1,
                                     _BLOCK_JOBS, _BLOCK_JOBS + 3,
                                     2 * _BLOCK_JOBS + 5, 3 * _BLOCK_JOBS + 1]),
                ),
                st.floats(0.0, 0.9),  # shaved off: fractional arrivals
                st.floats(0.0, 1.5),  # provisioned / arrivals
            ),
            max_size=24,
        ),
        startup=st.floats(0.0, 300.0),
        job_seconds=st.floats(1.0, 500.0),
        jitter=st.floats(0.0, 0.99),
        max_startups=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        intervals=[(7, 0.5, 1.0), (_BLOCK_JOBS - 1, 0.0, 0.5), (0, 0.0, 1.2),
                   (3, 0.0, 0.0), (_BLOCK_JOBS + 3, 0.0, 0.99), (40, 0.2, 1.5)],
        startup=120.0, job_seconds=180.0, jitter=0.1, max_startups=4, seed=0,
    )
    @example(
        # Cold tails across leaf boundaries: a whole multi-leaf interval
        # cold, then one whose warm/cold cut falls inside a leaf.
        intervals=[(3 * _BLOCK_JOBS + 1, 0.0, 0.0), (5, 0.0, 1.0),
                   (2 * _BLOCK_JOBS + 5, 0.0, 0.4)],
        startup=90.0, job_seconds=200.0, jitter=0.3, max_startups=3, seed=11,
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_interval_oracle(self, intervals, startup, job_seconds,
                                         jitter, max_startups, seed):
        jobs, shave, ratio = np.array(intervals, dtype=np.float64).reshape(-1, 3).T
        arrivals = np.maximum(jobs - shave, 0.0)
        provisioned = arrivals * ratio
        spec = VMSpec(startup_seconds=startup, job_seconds=job_seconds,
                      job_jitter_frac=jitter,
                      max_concurrent_startups=max_startups)

        sink = obs.add_sink(obs.MemorySink())
        try:
            res = CloudSimulator(spec=spec, seed=seed).run(arrivals, provisioned)
        finally:
            obs.remove_sink(sink)
        turnaround, makespan, vm_seconds, steps = oracle_run(
            spec, seed, arrivals, provisioned
        )
        assert hex64(res.turnaround_seconds) == hex64(turnaround)
        assert hex64(res.makespan_seconds) == hex64(makespan)
        assert float(res.vm_seconds).hex() == float(vm_seconds).hex()
        emitted = [
            {k: v for k, v in rec.items() if k not in ("event", "time", "v")}
            for rec in sink.by_name("autoscale.step")
        ]
        assert emitted == steps

    @given(
        intervals=st.lists(
            st.tuples(
                st.one_of(
                    st.just(0),
                    st.integers(1, 60),
                    st.sampled_from([_BLOCK_JOBS // 4 - 1, _BLOCK_JOBS // 4 + 9,
                                     _BLOCK_JOBS // 2 + 1, _BLOCK_JOBS + 3]),
                ),
                st.floats(0.0, 0.9),  # shaved off: fractional arrivals
                st.floats(0.0, 1.5),  # provisioned / arrivals
            ),
            max_size=16,
        ),
        workers=st.integers(2, 4),
        jitter=st.floats(0.0, 0.99),
        max_startups=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        # Idle intervals open both spans: the second starts with two of
        # them right after the cut, and its last interval is all cold.
        intervals=[(0, 0.0, 1.0), (40, 0.0, 1.0), (0, 0.0, 1.0),
                   (0, 0.0, 2.0), (40, 0.3, 0.0)],
        workers=2, jitter=0.1, max_startups=4, seed=0,
    )
    @example(
        # Four spans with a quarter of the budget each: the first three
        # walk an interval larger than their buffer, cold tails included.
        intervals=[(_BLOCK_JOBS // 2 + 1, 0.0, 0.7), (3, 0.0, 0.0),
                   (_BLOCK_JOBS // 4 + 9, 0.5, 0.2),
                   (_BLOCK_JOBS // 2 + 1, 0.0, 1.0), (7, 0.0, 0.0)],
        workers=4, jitter=0.5, max_startups=2, seed=7,
    )
    @example(
        # One interval holds most of the jobs, so the three cuts of a
        # four-way split coincide and the run gets two spans.
        intervals=[(_BLOCK_JOBS + 3, 0.0, 0.7), (3, 0.0, 0.0)],
        workers=4, jitter=0.2, max_startups=3, seed=5,
    )
    @settings(max_examples=40, deadline=None)
    def test_split_matches_serial(self, intervals, workers, jitter,
                                  max_startups, seed):
        """Span-parallel replay gives the serial replay's bytes and
        events, with the buffer budget shared across 2-4 spans."""
        jobs, shave, ratio = np.array(intervals, dtype=np.float64).reshape(-1, 3).T
        arrivals = np.maximum(jobs - shave, 0.0)
        provisioned = arrivals * ratio
        sim = CloudSimulator(
            spec=VMSpec(job_jitter_frac=jitter, max_concurrent_startups=max_startups),
            seed=seed,
        )

        def replay():
            sink = obs.add_sink(obs.MemorySink())
            try:
                res = sim.run(arrivals, provisioned)
            finally:
                obs.remove_sink(sink)
            events = [
                {k: v for k, v in rec.items() if k not in ("time", "v")}
                for rec in sink.by_name("autoscale.step")
            ]
            return res, events, replay_spans()

        with serial_replay():
            serial, serial_events, serial_spans = replay()
        with forced_split(workers):
            split, split_events, split_spans = replay()
        assert serial_spans == 1
        # The first cut falls inside the run unless the last interval
        # holds more than a (1 - 1/workers) share of the jobs.
        a = np.ceil(arrivals)
        if a.sum() >= workers and a[:-1].sum() >= a.sum() // workers:
            assert split_spans >= 2
        assert hex64(split.turnaround_seconds) == hex64(serial.turnaround_seconds)
        assert hex64(split.makespan_seconds) == hex64(serial.makespan_seconds)
        assert float(split.vm_seconds).hex() == float(serial.vm_seconds).hex()
        assert [e["interval"] for e in split_events] == list(range(arrivals.size))
        assert split_events == serial_events

    def test_worker_span_error_reaches_caller(self):
        """An exception in a span off the calling thread is raised by
        ``run``, after every span thread has been joined."""
        replay_span = cloudsim._replay_span
        ran = []

        def failing(lo, hi, **kwargs):
            ran.append(lo)
            if lo > 0:
                raise RuntimeError(f"span at interval {lo} failed")
            return replay_span(lo, hi, **kwargs)

        with forced_split(3), pytest.MonkeyPatch.context() as mp:
            mp.setattr(cloudsim, "_replay_span", failing)
            with pytest.raises(RuntimeError, match="span at interval"):
                CloudSimulator(seed=1).run(np.full(9, 50.0), np.full(9, 40.0))
        assert sorted(ran) == [0, 3, 6]
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("cloudsim-span")]

    def test_memory_bounded_by_block_and_cold_tail(self):
        """A replay never holds an interval's jobs at once.

        24 intervals of ~2.35 buffers would be ~120 MB drawn at once, and
        one interval alone ~4.9 MB; the buffer and the leaf walk keep the
        traced peak to a small multiple of ``max(block, largest cold
        tail) * 8`` bytes.
        """
        self.check_memory_bound(workers=None)

    def test_memory_bounded_by_block_and_cold_tail_split(self):
        """Four spans share the one buffer budget under the same bound;
        four full-size buffers (8 MiB) would break it."""
        self.check_memory_bound(workers=4)
        assert replay_spans() == 4

    def test_leaf_size_gauge(self):
        """Each replay records its per-span buffer budget, the largest
        leaf a span walks: the whole budget serially, half of it for
        each of two spans."""
        arrivals = np.full(6, 40.0)
        with serial_replay():
            CloudSimulator(seed=2).run(arrivals, arrivals)
        assert replay_spans() == 1
        assert replay_leaf_jobs() == _BLOCK_JOBS
        with forced_split(2):
            CloudSimulator(seed=2).run(arrivals, arrivals)
        assert replay_spans() == 2
        assert replay_leaf_jobs() == _BLOCK_JOBS // 2

    @staticmethod
    def check_memory_bound(workers):
        rng = np.random.default_rng(3)
        arrivals = np.round(rng.uniform(2.3, 2.4, 24) * _BLOCK_JOBS)
        provisioned = np.round(arrivals * rng.uniform(0.9, 1.1, 24))
        largest_cold = int(np.max(arrivals - provisioned))
        assert arrivals.min() > 2 * _BLOCK_JOBS > largest_cold
        bound = 3 * max(_BLOCK_JOBS, largest_cold) * 8
        sim = CloudSimulator(seed=0)
        with forced_split(workers) if workers else contextlib.nullcontext():
            tracemalloc.start()
            try:
                sim.run(arrivals, provisioned)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= bound, f"peak {peak} bytes > bound {bound} bytes"


class TestPolicies:
    def test_reactive_shifts_by_one(self):
        arrivals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        sched = ReactivePolicy().schedule(arrivals, start=2)
        np.testing.assert_array_equal(sched, [2.0, 3.0, 4.0])

    def test_oracle_matches_arrivals(self):
        arrivals = np.array([1.4, 2.0, 3.7])
        sched = OraclePolicy().schedule(arrivals, start=1)
        np.testing.assert_array_equal(sched, [2.0, 4.0])

    def test_predictive_uses_walk_forward(self):
        arrivals = np.full(30, 10.0)
        policy = PredictivePolicy(MeanPredictor(window=5))
        sched = policy.schedule(arrivals, start=20)
        np.testing.assert_allclose(sched, 10.0)

    def test_provisioning_schedule_nonnegative_integERS(self):
        rng = np.random.default_rng(0)
        arrivals = rng.uniform(0, 20, 40)
        sched = PredictivePolicy(MeanPredictor()).schedule(arrivals, 30)
        assert np.all(sched >= 0)
        np.testing.assert_array_equal(sched, np.round(sched))

    def test_policy_bounds_validation(self):
        with pytest.raises(ValueError):
            ReactivePolicy().schedule(np.ones(5), start=0)
        with pytest.raises(ValueError):
            OraclePolicy().schedule(np.ones(5), start=9)


class TestReactiveGeneralized:
    def test_defaults_bit_for_bit_identical(self):
        """window=1, headroom=1.0 must reproduce the original rule exactly."""
        rng = np.random.default_rng(3)
        arrivals = rng.uniform(0, 500, 200)
        old_rule = np.ceil(arrivals[49:199])
        np.testing.assert_array_equal(
            ReactivePolicy().schedule(arrivals, start=50), old_rule
        )
        assert ReactivePolicy().name == "reactive"

    def test_window_takes_max_of_last_k(self):
        arrivals = np.array([5.0, 1.0, 2.0, 9.0, 3.0, 4.0])
        sched = ReactivePolicy(window=3).schedule(arrivals, start=3)
        # max of [5,1,2]=5, [1,2,9]=9, [2,9,3]=9
        np.testing.assert_array_equal(sched, [5.0, 9.0, 9.0])

    def test_headroom_scales_before_ceil(self):
        arrivals = np.array([10.0, 10.0, 10.0])
        sched = ReactivePolicy(headroom=1.25).schedule(arrivals, start=1)
        np.testing.assert_array_equal(sched, [13.0, 13.0])

    def test_nonfinite_observations_ignored(self):
        arrivals = np.array([4.0, np.nan, 6.0, np.nan, np.nan])
        sched = ReactivePolicy(window=2).schedule(arrivals, start=2)
        # windows: [4,nan]->4, [nan,6]->6, [6,nan]->6
        np.testing.assert_array_equal(sched, [4.0, 6.0, 6.0])

    def test_all_nonfinite_window_provisions_zero(self):
        arrivals = np.array([np.nan, np.nan, 5.0])
        sched = ReactivePolicy().schedule(arrivals, start=2)
        np.testing.assert_array_equal(sched, [0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactivePolicy(window=0)
        with pytest.raises(ValueError):
            ReactivePolicy(headroom=0.0)

    @given(
        arrivals=arrays(np.float64, 30, elements=st.floats(0, 100)),
        window=st.integers(1, 6),
        headroom=st.floats(1.0, 3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_generalized_dominates_window_values(self, arrivals, window, headroom):
        """Every decision covers headroom x every finite value in its window."""
        sched = ReactivePolicy(window=window, headroom=headroom).schedule(
            arrivals, start=10
        )
        for j, i in enumerate(range(10, arrivals.size)):
            tail = arrivals[max(i - window, 0) : i]
            finite = tail[np.isfinite(tail)]
            if finite.size:
                assert sched[j] >= headroom * finite.max() - 1e-6


class TestSummary:
    def test_summarize_fields(self, spec):
        sim = CloudSimulator(spec=spec, seed=0)
        res = sim.run(np.array([4.0, 2.0]), np.array([3.0, 3.0]))
        s = summarize("test-policy", res)
        assert s.policy == "test-policy"
        assert s.n_intervals == 2
        assert s.mean_turnaround_seconds == pytest.approx(res.mean_turnaround)
        assert s.vm_hours == pytest.approx(res.vm_seconds / 3600.0)
        d = s.as_dict()
        assert set(d) == {
            "policy",
            "mean_turnaround_seconds",
            "underprovision_rate_pct",
            "overprovision_rate_pct",
            "vm_hours",
            "n_intervals",
        }
