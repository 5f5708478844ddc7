"""Crash-safe streaming serving: chunking, degradation, resume parity.

Two families of guarantees:

* **state round-trips** — every stateful serving component
  (`state_dict()`/`load_state_dict()`) must survive a
  serialize-through-JSON/restore cycle *bit-for-bit*, and a restored
  instance must behave identically to the original from that point on.
  These are hypothesis properties over random event streams.
* **stream semantics** — chunked ingestion is deterministic; drop /
  stall / shed / quarantine each degrade exactly the affected intervals;
  and the headline guarantee: kill mid-stream + resume produces a
  bit-for-bit identical provisioning schedule and ServingReport.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoscale.controller import HybridController
from repro.baselines.base import Predictor
from repro.obs.metrics import get_registry, reset_metrics
from repro.obs.monitor.drift import CusumDetector, PageHinkleyDetector
from repro.obs.monitor.monitor import ForecastMonitor
from repro.obs.monitor.quality import QualityTracker
from repro.obs.monitor.slo import SLOTracker
from repro.resilience import faults as _faults
from repro.serving import (
    CheckpointError,
    CircuitBreaker,
    GuardedPredictor,
    StreamConfig,
    StreamingServer,
    TraceSanitizer,
    chunk_stream,
    default_fallbacks,
    serve_and_simulate,
)
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serving.online import serving_counters


def _json_roundtrip(state: dict) -> dict:
    """Force the state through the same JSON layer checkpoints use."""
    return json.loads(json.dumps(state))


def _canon(state: dict) -> str:
    """Canonical JSON form — NaN-safe (``nan != nan`` breaks dict ==)."""
    return json.dumps(state, sort_keys=True)


# ----------------------------------------------------------------------
# state_dict round-trips (hypothesis properties)
# ----------------------------------------------------------------------
class TestStateRoundTrips:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["ok", "fail", "allow"]), max_size=60))
    def test_breaker_roundtrip_continues_identically(self, events):
        a = CircuitBreaker(window=8, min_calls=3, cooldown=4, probes=2)
        for ev in events:
            if ev == "allow":
                a.allow()
            elif ev == "ok":
                a.record_success()
            else:
                a.record_failure()
        state = _json_roundtrip(a.state_dict())
        b = CircuitBreaker(window=8, min_calls=3, cooldown=4, probes=2)
        b.load_state_dict(state)
        assert b.state_dict() == a.state_dict()
        # A restored breaker must behave identically from here on.
        for _ in range(30):
            assert a.allow() == b.allow()
            a.record_failure(); b.record_failure()
            assert a.state == b.state
        assert a.transitions == b.transitions

    def test_breaker_halfopen_probe_accounting_survives(self):
        """The satellite case: restore mid-probation, finish the probes."""
        br = CircuitBreaker(window=4, min_calls=2, cooldown=2, probes=3)
        br.record_failure(); br.record_failure()          # -> open
        assert br.state == OPEN
        assert not br.allow()                              # denial 1 of 2
        assert br.allow()                                  # cooldown elapses
        assert br.state == HALF_OPEN
        br.record_success()                                # probe 1 of 3
        restored = CircuitBreaker(window=4, min_calls=2, cooldown=2, probes=3)
        restored.load_state_dict(_json_roundtrip(br.state_dict()))
        assert restored.state == HALF_OPEN
        assert restored._probe_successes == 1
        restored.record_success()
        assert restored.state == HALF_OPEN                 # 2 of 3: still probing
        restored.record_success()
        assert restored.state == CLOSED                    # 3 of 3: closes
        assert restored.transitions == [
            (CLOSED, OPEN, "failure_rate"),
            (OPEN, HALF_OPEN, "cooldown_elapsed"),
            (HALF_OPEN, CLOSED, "probes_passed"),
        ]

    def test_breaker_rejects_garbage(self):
        br = CircuitBreaker(window=4, min_calls=2)
        with pytest.raises(ValueError):
            br.load_state_dict({"state": "melted", "outcomes": [],
                                "denied": 0, "probe_successes": 0,
                                "transitions": []})
        with pytest.raises(ValueError):
            br.load_state_dict({"state": CLOSED, "outcomes": [True] * 9,
                                "denied": 0, "probe_successes": 0,
                                "transitions": []})

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e4, allow_nan=False),
                st.floats(0.0, 1e4, allow_nan=False),
            ),
            max_size=50,
        )
    )
    def test_quality_tracker_roundtrip(self, pairs):
        a = QualityTracker(window=16)
        for p, t in pairs:
            a.update(p, t)
        b = QualityTracker(window=16)
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        assert b.snapshot() == a.snapshot()
        for p, t in pairs[:10]:
            assert a.update(p + 1.0, t) == b.update(p + 1.0, t)
        assert b.snapshot() == a.snapshot()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 500.0, allow_nan=False), max_size=80))
    def test_drift_detector_roundtrips(self, apes):
        for make in (CusumDetector, PageHinkleyDetector):
            a, b = make(), make()
            for ape in apes:
                a.update(ape)
            b.load_state_dict(_json_roundtrip(a.state_dict()))
            assert b.state_dict() == a.state_dict()
            for ape in apes[:20]:
                a.update(ape * 2.0)
                b.update(ape * 2.0)
            assert b.state_dict() == a.state_dict()
            assert b.snapshot() == a.snapshot()

    def test_drift_detector_name_mismatch_rejected(self):
        state = CusumDetector().state_dict()
        with pytest.raises(ValueError):
            PageHinkleyDetector().load_state_dict(state)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 2.0, allow_nan=False),
                st.floats(0.0, 200.0, allow_nan=False),
            ),
            max_size=60,
        )
    )
    def test_slo_tracker_roundtrip(self, pairs):
        def make():
            return SLOTracker(
                latency_slo_ms=100.0, accuracy_slo_mape=25.0,
                window=12, min_intervals=5,
            )

        a = make()
        for lat, ape in pairs:
            a.update(latency_s=lat, ape=ape)
        b = make()
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        assert b.snapshot() == a.snapshot()

    def test_slo_objective_mismatch_rejected(self):
        saved = SLOTracker(latency_slo_ms=10.0).state_dict()
        with pytest.raises(ValueError):
            SLOTracker(accuracy_slo_mape=30.0).load_state_dict(saved)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e3, allow_nan=False),
                st.floats(0.0, 1e3, allow_nan=False),
            ),
            max_size=60,
        )
    )
    def test_monitor_composed_roundtrip(self, pairs):
        def make():
            return ForecastMonitor(
                quality=QualityTracker(window=16),
                slo=SLOTracker(accuracy_slo_mape=30.0, window=8),
            )

        a = make()
        for p, t in pairs:
            a.observe(p, t, latency_s=None)
        b = make()
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        for p, t in pairs[:15]:
            assert a.observe(p, t) == b.observe(p, t)
        assert a.drifted == b.drifted

    def test_monitor_detector_count_mismatch_rejected(self):
        saved = ForecastMonitor(detectors=[CusumDetector()]).state_dict()
        with pytest.raises(ValueError):
            ForecastMonitor(detectors=[]).load_state_dict(saved)
        saved = ForecastMonitor(detectors=[], slo=SLOTracker(
            accuracy_slo_mape=10.0)).state_dict()
        with pytest.raises(ValueError):
            ForecastMonitor(detectors=[]).load_state_dict(saved)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(-50.0, 400.0, allow_nan=False), min_size=5, max_size=60
        ),
        st.integers(0, 4),
    )
    def test_controller_roundtrip_continues_identically(self, targets, nan_every):
        def make():
            return HybridController(drift_detector=PageHinkleyDetector())

        series = np.abs(np.asarray(targets, dtype=np.float64))
        a = make()
        for i in range(1, series.size):
            f = math.nan if nan_every and i % (nan_every + 1) == 0 else series[i - 1]
            a.step(f, series[:i])
        b = make()
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert _canon(b.state_dict()) == _canon(a.state_dict())
        for i in range(1, series.size):
            da = a.step(series[i - 1] * 1.1, series[:i])
            db = b.step(series[i - 1] * 1.1, series[:i])
            assert da == db
        assert _canon(a.state_dict()) == _canon(b.state_dict())

    def test_controller_error_window_overflow_rejected(self):
        a = HybridController()
        state = a.state_dict()
        state["errors"] = [1.0] * (a.config.error_window + 1)
        with pytest.raises(ValueError):
            HybridController().load_state_dict(state)

    def test_guarded_predictor_roundtrip(self):
        a = GuardedPredictor(None, fallbacks=default_fallbacks(4))
        h = np.abs(np.sin(np.arange(40, dtype=np.float64))) * 10 + 1
        for i in range(10, 40):
            a.predict_next(h[:i])
        a._drift_shift = 1.5
        b = GuardedPredictor(None, fallbacks=default_fallbacks(4))
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        assert b.served_by == a.served_by
        assert b.predict_next(h) == a.predict_next(h)

    def test_guarded_predictor_primary_state_mismatch_rejected(self):
        state = GuardedPredictor(None).state_dict()
        state["primary"] = {"anything": 1}
        with pytest.raises(ValueError):
            GuardedPredictor(None).load_state_dict(state)

    def test_adaptive_bookkeeping_roundtrip(self):
        from repro.core import AdaptiveLoadDynamics

        def make():
            return AdaptiveLoadDynamics(
                drift_window=6, drift_factor=2.0, min_refit_gap=10,
                refit_on_drift=CusumDetector(),
            )

        a = make()
        a.refit_history = [30, 60]
        a.failed_refits = 1
        a.drift_refits = 2
        a._recent_errors.extend([5.0, 7.5, 40.0])
        a._last_pred = 123.25
        a._last_len = 61
        a._since_refit = 3
        a._best_val_mape = 8.125
        for ape in (4.0, 5.0, 6.0, 90.0):
            a.refit_on_drift.update(ape)
        b = make()
        b.load_state_dict(_json_roundtrip(a.state_dict()))
        assert b.state_dict() == a.state_dict()
        assert b.predictor is None  # bookkeeping-only restore

    def test_adaptive_error_window_overflow_rejected(self):
        from repro.core import AdaptiveLoadDynamics

        a = AdaptiveLoadDynamics(drift_window=4)
        state = a.state_dict()
        state["recent_errors"] = [1.0] * 5
        with pytest.raises(ValueError):
            AdaptiveLoadDynamics(drift_window=4).load_state_dict(state)


# ----------------------------------------------------------------------
# chunked ingestion semantics
# ----------------------------------------------------------------------
def _diurnal(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    return np.clip(
        100 + 30 * np.sin(2 * np.pi * t / 48) + rng.normal(0, 5, n), 0, None
    )


def _mv(n: int, seed: int = 0) -> np.ndarray:
    """Three correlated job-count channels around a diurnal target in
    channel 1."""
    base = _diurnal(n, seed)
    rng = np.random.default_rng(seed + 1)
    return np.round(np.clip(np.column_stack([
        2.0 * base + rng.normal(0, 3, n),
        base,
        0.5 * base + rng.normal(0, 2, n),
    ]), 0, None))


class _Mixing(Predictor):
    """Forecasts channel 1 from every channel of the last two rows, so a
    feed that mixed up rows or channels would change the schedule."""

    name = "mixing"
    target_channel = 1
    min_history = 2

    def predict_next(self, history):
        h = np.asarray(history)
        return float(0.2 * h[-1, 0] + 0.5 * h[-1, 1] + 0.3 * h[-2, 2])


def _stream_run(
    trace: np.ndarray,
    start: int,
    *,
    ckpt: str | None = None,
    resume: bool = False,
    faults: str | None = None,
    sanitizer: TraceSanitizer | None = None,
    monitor: bool = True,
    controller: bool = False,
    primary: Predictor | None = None,
    **cfg_kwargs,
):
    """One full streamed run with a fresh metrics registry."""
    reset_metrics()
    predictor = GuardedPredictor(primary, fallbacks=default_fallbacks(48))
    mon = (
        ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=30.0))
        if monitor else None
    )
    ctl = HybridController() if controller else None
    cfg_kwargs.setdefault("chunk_size", 64)
    cfg_kwargs.setdefault("size_jitter", 8)
    cfg_kwargs.setdefault("seed", 3)
    cfg = StreamConfig(
        checkpoint_dir=ckpt, resume=resume, checkpoint_every=5, **cfg_kwargs
    )
    kwargs = dict(
        spec=None, seed=0, monitor=mon, controller=ctl,
        stream=cfg, sanitizer=sanitizer,
    )
    if faults:
        with _faults.injected(faults):
            return serve_and_simulate(predictor, trace, start, **kwargs)
    return serve_and_simulate(predictor, trace, start, **kwargs)


def _report_fingerprint(rep) -> tuple:
    """Everything observable about a run, JSON-canonicalized."""
    return (
        rep.schedule.tobytes(),
        json.dumps(
            {
                "counters": rep.serving_counters,
                "served_by": rep.served_by,
                "breaker_state": rep.breaker_state,
                "transitions": rep.breaker_transitions,
                "quality": rep.quality,
                "drift": rep.drift,
                "slo": rep.slo,
                "health": rep.health,
                "controller": rep.controller,
                "stream": rep.stream,
                "provisioned": rep.result.provisioned.tobytes().hex(),
                "arrivals": rep.result.arrivals.tobytes().hex(),
                "vm_seconds": rep.result.vm_seconds,
            },
            sort_keys=True, default=str,
        ),
    )


class TestChunkStream:
    def test_deterministic_and_covering(self):
        trace = _diurnal(500)
        cfg = StreamConfig(chunk_size=32, size_jitter=6, seed=9)
        a = list(chunk_stream(trace, config=cfg))
        b = list(chunk_stream(trace, config=cfg))
        assert [c.offset for c in a] == [c.offset for c in b]
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
        rebuilt = np.concatenate([c.values for c in a])
        np.testing.assert_array_equal(rebuilt, trace)
        arrivals = [c.arrival_s for c in a]
        assert arrivals == sorted(arrivals)

    def test_2d_trace_chunks_by_rows(self):
        small = np.arange(12.0).reshape(6, 2)
        chunks = list(chunk_stream(small, config=StreamConfig(chunk_size=4)))
        assert [c.values.tolist() for c in chunks] == [
            small[:4].tolist(), small[4:].tolist()
        ]
        trace = _mv(500)
        cfg = StreamConfig(chunk_size=32, size_jitter=6, seed=9)
        rows = list(chunk_stream(trace, config=cfg))
        # Sizes, offsets and arrivals count intervals, as on a 1-D feed.
        flat = list(chunk_stream(trace[:, 1], config=cfg))
        assert [(c.offset, c.arrival_s) for c in rows] == [
            (c.offset, c.arrival_s) for c in flat
        ]
        np.testing.assert_array_equal(
            np.concatenate([c.values for c in rows]), trace
        )

    def test_drop_fault_leaves_offset_gap(self):
        trace = _diurnal(300)
        cfg = StreamConfig(chunk_size=50, seed=1)
        with _faults.injected("drop@stream.chunk:2"):
            chunks = list(chunk_stream(trace, config=cfg))
        offsets = [c.offset for c in chunks]
        assert 50 not in offsets  # second chunk lost
        assert offsets[0] == 0 and offsets[1] == 100

    def test_stall_fault_delays_arrival(self):
        trace = _diurnal(300)
        cfg = StreamConfig(chunk_size=50, seed=1)
        plain = list(chunk_stream(trace, config=cfg))
        with _faults.injected("stall@stream.chunk:2=500"):
            stalled = list(chunk_stream(trace, config=cfg))
        assert stalled[1].arrival_s == pytest.approx(plain[1].arrival_s + 500.0)
        # Monotonic clock: successors never arrive before the stalled chunk.
        assert stalled[2].arrival_s >= stalled[1].arrival_s

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(chunk_size=0)
        with pytest.raises(ValueError):
            StreamConfig(chunk_size=4, size_jitter=4)
        with pytest.raises(ValueError):
            StreamConfig(deadline_s=0.0)
        with pytest.raises(ValueError):
            StreamConfig(service_time_per_interval=-1.0)
        # A NaN once slipped past every comparison, silently switching
        # the stall watchdog or the backpressure model off.
        for name in ("interval_s", "arrival_jitter_s", "deadline_s",
                     "service_time_per_interval"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    StreamConfig(**{name: bad})


class TestStreamingDegradation:
    def test_clean_stream_serves_every_interval(self):
        trace = _diurnal(2000)
        rep = _stream_run(trace, 1000)
        assert rep.stream["intervals"] == 1000
        assert rep.stream["served_intervals"] == 1000
        assert rep.stream["held_intervals"] == 0
        assert rep.schedule.size == 1000
        assert np.all(np.isfinite(rep.schedule))

    def test_dropped_chunk_serves_gap_blind(self):
        trace = _diurnal(2000)
        rep = _stream_run(trace, 1000, faults="drop@stream.chunk:3")
        assert rep.stream["intervals"] == 1000  # nothing silently vanishes
        assert rep.stream["gap_intervals"] > 0
        assert rep.stream["held_intervals"] == rep.stream["gap_intervals"]

    def test_stalled_feed_holds_then_recovers(self):
        trace = _diurnal(2000)
        rep = _stream_run(
            trace, 1000, deadline_s=120.0, faults="stall@stream.chunk:4=600",
        )
        assert len(rep.stream["stalls"]) == 1
        stall = rep.stream["stalls"][0]
        assert stall["gap_s"] > stall["deadline_s"]
        assert rep.stream["held_intervals"] == stall["intervals_held"]
        # Recovery: every interval after the stalled chunk served normally.
        assert (
            rep.stream["served_intervals"]
            == 1000 - stall["intervals_held"]
        )
        # Held intervals repeat the pre-stall decision.
        held = rep.schedule[stall["offset"] : stall["offset"]
                            + stall["intervals_held"]]
        assert np.all(held == held[0])

    def test_backpressure_sheds_on_burst(self):
        trace = _diurnal(2000)
        # A long stall piles up a burst; with ~0.9s of work per interval
        # arriving every 1.0s the backlog drains slowly enough that the
        # tiny queue overflows and whole chunks are shed.
        rep = _stream_run(
            trace, 1000,
            deadline_s=None,
            service_time_per_interval=0.9,
            queue_capacity=64,
            faults="stall@stream.chunk:4=600",
        )
        assert rep.stream["shed_chunks"] > 0
        assert rep.stream["queue_peak_intervals"] > 64
        assert rep.stream["intervals"] == 1000

    def test_rejected_chunk_quarantined_and_served_from_fallbacks(self):
        trace = _diurnal(2000)
        trace[1300:1310] = np.nan
        rep = _stream_run(
            trace, 1000, sanitizer=TraceSanitizer(policy="reject"),
        )
        assert rep.stream["quarantined_chunks"] >= 1
        assert all("rejected" in q["reason"] for q in rep.stream["quarantine"])
        assert rep.stream["quarantined_intervals"] == sum(
            q["intervals"] for q in rep.stream["quarantine"]
        )
        assert rep.stream["intervals"] == 1000
        assert np.all(np.isfinite(rep.schedule))

    def test_repair_policy_keeps_chunk_in_service(self):
        trace = _diurnal(2000)
        trace[1300:1310] = np.nan
        rep = _stream_run(
            trace, 1000, sanitizer=TraceSanitizer(policy="interpolate"),
        )
        assert rep.stream["quarantined_chunks"] == 0
        assert rep.stream["repaired_values"] == 10
        assert rep.stream["served_intervals"] == 1000

    def test_seasonality_break_mid_stream_trips_drift(self):
        """A mid-stream period change must flow through monitoring."""
        n = 3000
        t = np.arange(n, dtype=np.float64)
        rng = np.random.default_rng(5)
        trace = 100 + 40 * np.sin(2 * np.pi * t / 48)
        trace[2000:] = 100 + 40 * np.sin(2 * np.pi * t[2000:] / 24)
        trace = np.clip(trace + rng.normal(0, 2, n), 0, None)
        rep = _stream_run(trace, 1000, size_jitter=0)
        assert rep.stream["served_intervals"] == 2000
        assert rep.drifted  # the break must not pass silently
        assert rep.health["status"] in ("degraded", "breached")

    def test_streamed_scenario_fixture(self):
        """The harness's seasonality_break scenario streams end to end."""
        from repro.autoscale.scenarios import SCENARIO_NAMES, default_scenarios

        assert "seasonality_break" in SCENARIO_NAMES
        scen = {
            s.name: s for s in default_scenarios(days=6, serve_days=3, seed=7)
        }["seasonality_break"]
        rep = _stream_run(scen.observed, scen.start, size_jitter=0)
        assert rep.stream["intervals"] == scen.observed.size - scen.start
        assert rep.drifted


class TestCheckpointResume:
    def test_kill_midstream_resume_bit_for_bit(self, tmp_path):
        trace = _diurnal(3000)
        trace[1500:1505] = np.nan  # exercise the sanitizer on the way
        ref = _stream_run(
            trace, 1000, ckpt=str(tmp_path / "ref"), deadline_s=120.0,
        )
        with pytest.raises(_faults.SimulatedCrash):
            _stream_run(
                trace, 1000, ckpt=str(tmp_path / "crash"), deadline_s=120.0,
                faults="kill@stream.chunk:20",
            )
        resumed = _stream_run(
            trace, 1000, ckpt=str(tmp_path / "crash"), deadline_s=120.0,
            resume=True,
        )
        assert _report_fingerprint(resumed) == _report_fingerprint(ref)

    def test_kill_midstream_resume_with_controller(self, tmp_path):
        trace = _diurnal(2500)
        ref = _stream_run(trace, 1500, ckpt=str(tmp_path / "ref"),
                          controller=True)
        with pytest.raises(_faults.SimulatedCrash):
            _stream_run(trace, 1500, ckpt=str(tmp_path / "crash"),
                        controller=True, faults="kill@stream.chunk:10")
        resumed = _stream_run(trace, 1500, ckpt=str(tmp_path / "crash"),
                              controller=True, resume=True)
        assert _report_fingerprint(resumed) == _report_fingerprint(ref)

    def test_multivariate_kill_midstream_resume_bit_for_bit(self, tmp_path):
        trace = _mv(2500, seed=2)
        trace[1500:1504, 2] = np.nan  # repaired in its own channel
        kwargs = dict(
            primary=_Mixing(), controller=True, deadline_s=120.0,
        )
        ref = _stream_run(
            trace, 1000, ckpt=str(tmp_path / "ref"),
            faults="drop@stream.chunk:4", **kwargs,
        )
        with pytest.raises(_faults.SimulatedCrash):
            _stream_run(
                trace, 1000, ckpt=str(tmp_path / "crash"),
                faults="drop@stream.chunk:4,kill@stream.chunk:12", **kwargs,
            )
        resumed = _stream_run(
            trace, 1000, ckpt=str(tmp_path / "crash"), resume=True,
            faults="drop@stream.chunk:4", **kwargs,
        )
        assert _report_fingerprint(resumed) == _report_fingerprint(ref)
        assert ref.stream["gap_intervals"] > 0
        assert ref.stream["repaired_values"] == 4
        served = ref.stream["served_intervals"]
        assert served > 0 and ref.served_by["primary"] == served
        # The simulator replays the target channel.
        np.testing.assert_array_equal(
            ref.result.arrivals[-100:], trace[-100:, 1]
        )

    def test_channel_count_mismatch_is_typed_error(self, tmp_path):
        trace = _mv(1500)
        ckpt = str(tmp_path / "ck")
        _stream_run(trace, 1000, ckpt=ckpt, primary=_Mixing())
        for other in (trace[:, :2], trace[:, 1]):
            with pytest.raises(CheckpointError, match="channels"):
                _stream_run(other, 1000, ckpt=ckpt, primary=_Mixing(),
                            resume=True)

    def test_crash_before_first_checkpoint_restarts_fresh(self, tmp_path):
        trace = _diurnal(2000)
        ref = _stream_run(trace, 1000, ckpt=str(tmp_path / "ref"))
        with pytest.raises(_faults.SimulatedCrash):
            _stream_run(trace, 1000, ckpt=str(tmp_path / "crash"),
                        faults="kill@stream.chunk:2")  # before checkpoint 1
        resumed = _stream_run(trace, 1000, ckpt=str(tmp_path / "crash"),
                              resume=True)
        assert _report_fingerprint(resumed) == _report_fingerprint(ref)

    def test_resume_after_finish_is_idempotent(self, tmp_path):
        trace = _diurnal(2000)
        ref = _stream_run(trace, 1000, ckpt=str(tmp_path / "done"))
        again = _stream_run(trace, 1000, ckpt=str(tmp_path / "done"),
                            resume=True)
        assert _report_fingerprint(again) == _report_fingerprint(ref)

    def test_schema_mismatch_is_typed_error(self, tmp_path):
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"))
        path = tmp_path / "ck" / "checkpoint.json"
        state = json.loads(path.read_text())
        state["schema"] = 99
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="schema"):
            _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"), resume=True)

    def test_corrupt_checkpoint_is_typed_error(self, tmp_path):
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"))
        (tmp_path / "ck" / "checkpoint.json").write_text("{truncated")
        with pytest.raises(CheckpointError, match="unreadable"):
            _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"), resume=True)

    def test_identity_mismatch_is_typed_error(self, tmp_path):
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"), chunk_size=64)
        with pytest.raises(CheckpointError, match="identity"):
            _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"),
                        resume=True, chunk_size=32)

    def test_truncated_sidecar_is_typed_error(self, tmp_path):
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"))
        sidecar = tmp_path / "ck" / "schedule.f64"
        sidecar.write_bytes(sidecar.read_bytes()[:64])
        with pytest.raises(CheckpointError, match="sidecar"):
            _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"), resume=True)

    @pytest.mark.parametrize("section, corrupt", [
        ("cursor", lambda s: s["cursor"].pop("queue_peak")),
        ("components", lambda s: s["components"]["controller"].pop("integral")),
        ("components",
         lambda s: s["components"]["monitor"]["quality"].pop("roll")),
        ("components", lambda s: s["components"]["controller"].update(
            errors=[1.0] * (HybridController().config.error_window + 1))),
    ], ids=["cursor-field", "controller-field", "nested-child", "window-overflow"])
    def test_malformed_checkpoint_restores_nothing(self, tmp_path, section, corrupt):
        """A checkpoint with one bad field raises CheckpointError naming
        its section, and the resuming server keeps exactly the state it
        had: no sidecar, history, cursor, component or counter moves."""
        reset_metrics()
        trace = _diurnal(1400)
        ckpt = tmp_path / "ck"

        def server(checkpoint_dir=None):
            cfg = StreamConfig(chunk_size=16, checkpoint_every=1,
                               checkpoint_dir=checkpoint_dir)
            return cfg, StreamingServer(
                GuardedPredictor(None, fallbacks=default_fallbacks(48)),
                trace[:1000], config=cfg,
                monitor=ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=30.0)),
                controller=HybridController(),
            )

        cfg, writer = server(str(ckpt))
        writer.run(chunk_stream(trace[1000:], config=cfg))
        path = ckpt / "checkpoint.json"
        state = json.loads(path.read_text())
        assert state["cursor"]["chunks_processed"] == 25
        corrupt(state)
        path.write_text(json.dumps(state))

        cfg, reader = server()
        for chunk in list(chunk_stream(trace[1000:], config=cfg))[:10]:
            reader._ingest(chunk)

        def snapshot() -> str:
            return _canon({
                "n": reader._n,
                "next_offset": reader._next_offset,
                "summary": reader.summary(),
                "history": reader._history_view().tobytes().hex(),
                "schedule": reader._sched_buf[: reader._n].tobytes().hex(),
                "predictor": reader.predictor.state_dict(),
                "monitor": reader.monitor.state_dict(),
                "controller": reader.controller.state_dict(),
                "counters": serving_counters(),
            })

        before = snapshot()
        with pytest.raises(CheckpointError, match=f"section '{section}'"):
            reader.restore(ckpt)
        assert reader._n == 160
        assert snapshot() == before

    def test_resume_without_checkpoint_dir_is_typed_error(self):
        server = StreamingServer(
            GuardedPredictor(None), np.ones(10), config=StreamConfig()
        )
        with pytest.raises(CheckpointError, match="directory"):
            server.restore()

    def test_checkpoint_overhead_intervals_match_sidecars(self, tmp_path):
        """Sidecars + checkpoint always agree on the durable prefix."""
        trace = _diurnal(2000)
        _stream_run(trace, 1000, ckpt=str(tmp_path / "ck"))
        state = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
        n = state["sidecar"]["n"]
        assert n == 1000
        for name in ("schedule.f64", "actuals.f64"):
            blob = (tmp_path / "ck" / name).read_bytes()
            assert len(blob) == n * 8

    def test_stream_section_on_report(self):
        trace = _diurnal(2000)
        rep = _stream_run(trace, 1000)
        assert rep.stream is not None
        for key in ("chunks", "intervals", "served_intervals",
                    "checkpoints_written", "stalls", "quarantine"):
            assert key in rep.stream
        # Batch path keeps stream=None.
        reset_metrics()
        batch = serve_and_simulate(
            GuardedPredictor(None, fallbacks=default_fallbacks(48)),
            trace, 1800,
        )
        assert batch.stream is None


# ----------------------------------------------------------------------
# chunk-batched forecasting: tolerance class against per-interval serving
# ----------------------------------------------------------------------
#: Declared tolerance of a batched forecast against ``predict_next``: a
#: ``(B, n)`` forward pass rounds its GEMMs differently from a one-row
#: GEMV, by about one ulp, so bitwise equality is not the contract.
FORECAST_RTOL = 1e-12
#: Share of intervals whose decision may differ by (at most) one VM.
DECISION_FLIPS = 0.01


class _SequentialOnly(Predictor):
    """The same model behind ``predict_next`` alone — the stream serves
    it per interval, which makes it the reference for the batched path."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.min_history = inner.min_history

    def fit(self, history):
        self.inner.fit(history)
        return self

    def predict_next(self, history):
        return self.inner.predict_next(history)


class _RecordingGuard(GuardedPredictor):
    """A guard that keeps every value it served, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forecasts: list[float] = []

    def predict_next(self, history, raw=None):
        value = super().predict_next(history, raw=raw)
        self.forecasts.append(value)
        return value

    def serve_block(self, raws, target, first, history_window):
        reason = super().serve_block(raws, target, first, history_window)
        if reason is None:
            self.forecasts.extend(raws.tolist())
        return reason


@pytest.fixture(scope="module")
def lstm_primary():
    """A fitted two-layer LSTM predictor over a 12-step window."""
    from repro.bayesopt import IntParam, SearchSpace
    from repro.core import FrameworkSettings, LoadDynamics

    space = SearchSpace([
        IntParam("history_len", 12, 12),
        IntParam("cell_size", 8, 8),
        IntParam("num_layers", 2, 2),
        IntParam("batch_size", 32, 32),
    ])
    predictor, _ = LoadDynamics(
        space=space, settings=FrameworkSettings.tiny(max_iters=2, epochs=3),
    ).fit(_diurnal(600, seed=5))
    return predictor


def _model_run(
    primary,
    trace: np.ndarray,
    start: int,
    *,
    chunk_size: int = 16,
    size_jitter: int = 0,
    controller: bool = False,
    faults: str | None = None,
    breaker: CircuitBreaker | None = None,
    refit_every: int | None = None,
    ckpt: str | None = None,
    resume: bool = False,
):
    """Stream ``trace[start:]`` through a guarded ``primary``.

    Returns the report, the served forecasts, and the fault log.
    """
    reset_metrics()
    guard = _RecordingGuard(
        primary, fallbacks=default_fallbacks(48), breaker=breaker
    )
    cfg = StreamConfig(
        chunk_size=chunk_size, size_jitter=size_jitter, seed=3,
        checkpoint_dir=ckpt, resume=resume, checkpoint_every=2,
    )
    server = StreamingServer(
        guard, trace[:start], config=cfg,
        monitor=ForecastMonitor(),
        controller=HybridController() if controller else None,
        refit_every=refit_every,
    )
    if faults is None:
        # No injector at all: an active one declines every block pass.
        report = server.run(chunk_stream(trace[start:], config=cfg))
        return report, np.array(guard.forecasts), []
    with _faults.injected(faults) as inj:
        report = server.run(chunk_stream(trace[start:], config=cfg))
    return report, np.array(guard.forecasts), list(inj.fired_log)


def _assert_tolerance_class(batched, sequential) -> None:
    """Identical accounting, forecasts within rtol, decisions within 1 VM."""
    rep_b, fc_b, log_b = batched
    rep_s, fc_s, log_s = sequential
    assert log_b == log_s
    assert rep_b.served_by == rep_s.served_by
    assert rep_b.breaker_transitions == rep_s.breaker_transitions
    assert rep_b.serving_counters == rep_s.serving_counters
    assert rep_b.stream == rep_s.stream
    np.testing.assert_allclose(fc_b, fc_s, rtol=FORECAST_RTOL, atol=0.0)
    off = np.abs(rep_b.schedule - rep_s.schedule)
    assert off.max() <= 1.0
    assert np.count_nonzero(off) <= DECISION_FLIPS * off.size


class TestBatchedForecasting:
    @pytest.mark.parametrize("controller", [False, True])
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_batched_matches_sequential_within_tolerance(
        self, lstm_primary, chunk_size, controller
    ):
        trace = _diurnal(700, seed=11)
        trace[450:452] = np.nan  # repaired per chunk on the way
        kwargs = dict(
            chunk_size=chunk_size, size_jitter=min(3, chunk_size - 1),
            controller=controller,
        )
        batched = _model_run(lstm_primary, trace, 300, **kwargs)
        sequential = _model_run(
            _SequentialOnly(lstm_primary), trace, 300, **kwargs
        )
        _assert_tolerance_class(batched, sequential)
        rep = batched[0]
        assert rep.served_by == {"primary": rep.stream["served_intervals"]}

    def test_stream_makes_no_per_interval_primary_calls(
        self, lstm_primary, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            lstm_primary, "predict_next",
            lambda history: calls.append(1) or 0.0,
        )
        rep, _, _ = _model_run(lstm_primary, _diurnal(500), 300, chunk_size=64)
        assert rep.stream["served_intervals"] == 200
        assert calls == []

    @pytest.mark.parametrize("controller", [False, True])
    def test_refit_boundaries_split_blocks(self, lstm_primary, controller):
        from repro.core import LoadDynamicsPredictor

        class Refitting(LoadDynamicsPredictor):
            """Each refit moves every later forecast, so a batch that
            spanned a refit would serve stale forecasts."""

            shift = 0.0

            def fit(self, history):
                self.shift = 0.1 * float(history[-1])
                return self

            def predict_next(self, history):
                return super().predict_next(history) + self.shift

            def predict_series(self, series, start, end=None):
                return super().predict_series(series, start, end) + self.shift

        def fresh():
            return Refitting(
                lstm_primary.model, lstm_primary.scaler,
                lstm_primary.hyperparameters,
            )

        trace = _diurnal(600, seed=2)
        kwargs = dict(
            chunk_size=16, size_jitter=5, refit_every=10,
            controller=controller,
        )
        _assert_tolerance_class(
            _model_run(fresh(), trace, 300, **kwargs),
            _model_run(_SequentialOnly(fresh()), trace, 300, **kwargs),
        )

    @pytest.mark.parametrize("controller", [False, True])
    def test_faults_and_breaker_match_sequential(self, lstm_primary, controller):
        """nan/boom/drift land on the same intervals; the breaker opens and
        half-opens inside one chunk ([16, 32)) exactly as per interval."""
        faults = (
            "nan@serve.predict:5,boom@serve.predict:9,"
            "nan@serve.predict:20,boom@serve.predict:21,"
            "drift@serve.predict:40=1.5"
        )

        def run(primary):
            return _model_run(
                primary, _diurnal(500, seed=4), 300, chunk_size=16,
                controller=controller, faults=faults,
                breaker=CircuitBreaker(
                    window=4, min_calls=2, cooldown=3, probes=2
                ),
            )

        batched = run(lstm_primary)
        _assert_tolerance_class(batched, run(_SequentialOnly(lstm_primary)))
        rep, _, log = batched
        assert [(count, kind) for _, count, kind in log] == [
            (5, "nan"), (9, "boom"), (20, "nan"), (21, "boom"), (40, "drift"),
        ]
        assert [t[:2] for t in rep.breaker_transitions] == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]
        # Four faulted intervals and two shed ones went to the fallbacks.
        assert rep.served_by["primary"] == rep.stream["served_intervals"] - 6

    def test_failing_batch_serves_the_block_per_interval(self, lstm_primary):
        from repro.core import LoadDynamicsPredictor

        class BrokenBatch(LoadDynamicsPredictor):
            def predict_series(self, series, start, end=None):
                raise RuntimeError("batched forward unavailable")

        broken = BrokenBatch(
            lstm_primary.model, lstm_primary.scaler,
            lstm_primary.hyperparameters,
        )
        trace = _diurnal(500, seed=6)
        rep, fc, _ = _model_run(broken, trace, 300, chunk_size=7, size_jitter=3)
        ref, fc_ref, _ = _model_run(
            _SequentialOnly(lstm_primary), trace, 300,
            chunk_size=7, size_jitter=3,
        )
        assert rep.served_by == {"primary": 200}
        assert rep.serving_counters == ref.serving_counters
        # Per-interval serving is the sequential path itself: bit for bit.
        assert fc.tobytes() == fc_ref.tobytes()
        assert rep.schedule.tobytes() == ref.schedule.tobytes()

    def test_kill_midstream_resume_bit_for_bit_with_lstm(
        self, lstm_primary, tmp_path
    ):
        trace = _diurnal(700, seed=9)
        trace[500:502] = np.nan
        kwargs = dict(
            chunk_size=16, size_jitter=5, refit_every=10, controller=True
        )
        ref, _, _ = _model_run(
            lstm_primary, trace, 300, ckpt=str(tmp_path / "ref"), **kwargs
        )
        with pytest.raises(_faults.SimulatedCrash):
            _model_run(
                lstm_primary, trace, 300, ckpt=str(tmp_path / "crash"),
                faults="kill@stream.chunk:12", **kwargs,
            )
        resumed, _, _ = _model_run(
            lstm_primary, trace, 300, ckpt=str(tmp_path / "crash"),
            resume=True, **kwargs,
        )
        assert _report_fingerprint(resumed) == _report_fingerprint(ref)
        assert resumed.served_by == {"primary": 400}


# ----------------------------------------------------------------------
# one serve step: batch walk == one-chunk stream
# ----------------------------------------------------------------------
class TestOneServeStep:
    """Batch serving and a stream fed the whole trace in one chunk drive
    the same per-interval serve step, so on a clean trace whose bounded
    history covers everything they serve the identical schedule."""

    @pytest.mark.parametrize("refit_every", [1, 7, 10**9])
    @pytest.mark.parametrize("controller", [False, True])
    def test_batch_equals_one_chunk_stream(self, controller, refit_every):
        from repro.autoscale import PredictivePolicy
        from repro.baselines.naive import SeasonalNaivePredictor

        trace = _diurnal(600, seed=4)
        n, start = trace.size, 400

        def run(**extra):
            reset_metrics()
            return serve_and_simulate(
                GuardedPredictor(SeasonalNaivePredictor(48)), trace, start,
                refit_every=refit_every, monitor=ForecastMonitor(),
                controller=HybridController() if controller else None,
                **extra,
            )

        batch = run()
        streamed = run(
            stream=StreamConfig(chunk_size=n - start, history_window=n)
        )
        assert batch.schedule.tobytes() == streamed.schedule.tobytes()
        assert batch.served_by == streamed.served_by == {"primary": n - start}
        assert batch.controller == streamed.controller
        assert batch.result.vm_seconds == streamed.result.vm_seconds
        assert batch.quality["cumulative"] == streamed.quality["cumulative"]
        assert batch.stream is None and streamed.stream["chunks"] == 1

        if controller:
            policy = PredictivePolicy(
                GuardedPredictor(SeasonalNaivePredictor(48)),
                controller=HybridController(),
                refit_every=refit_every,
            )
            assert policy.schedule(trace, start).tobytes() == batch.schedule.tobytes()

    @pytest.mark.parametrize("refit_every", [1, 7, 10**9])
    @pytest.mark.parametrize("controller", [False, True])
    def test_multivariate_batch_equals_one_chunk_stream(
        self, controller, refit_every
    ):
        trace = _mv(600, seed=4)
        n, start = trace.shape[0], 400

        def run(**extra):
            reset_metrics()
            return serve_and_simulate(
                GuardedPredictor(_Mixing(), fallbacks=default_fallbacks(48)),
                trace, start,
                refit_every=refit_every, monitor=ForecastMonitor(),
                controller=HybridController() if controller else None,
                **extra,
            )

        batch = run()
        streamed = run(
            stream=StreamConfig(chunk_size=n - start, history_window=n)
        )
        assert batch.schedule.tobytes() == streamed.schedule.tobytes()
        assert batch.served_by == streamed.served_by == {"primary": n - start}
        assert batch.controller == streamed.controller
        assert batch.result.vm_seconds == streamed.result.vm_seconds
        assert batch.quality["cumulative"] == streamed.quality["cumulative"]
        assert batch.stream is None and streamed.stream["chunks"] == 1
        np.testing.assert_array_equal(batch.result.arrivals, trace[start:, 1])


class TestBatchCallers:
    """The batch callers serve through the direct entry."""

    @pytest.mark.parametrize("start", [0, 51])
    def test_invalid_start_is_refused(self, start):
        from repro.autoscale import PredictivePolicy
        from repro.baselines.naive import LastValuePredictor

        trace = _diurnal(50)
        calls = [
            lambda: serve_and_simulate(LastValuePredictor(), trace, start),
            lambda: serve_and_simulate(
                LastValuePredictor(), trace, start, stream=StreamConfig()
            ),
            lambda: PredictivePolicy(LastValuePredictor()).schedule(trace, start),
            lambda: PredictivePolicy(
                LastValuePredictor(), controller=HybridController()
            ).schedule(trace, start),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="invalid start"):
                call()

    def test_default_refit_keeps_chunks_batched(self):
        """Without ``refit_every`` a chunk is one ``predict_series`` call
        (a refit every interval would cut each block to one interval)."""

        class Counting(Predictor):
            name = "counting"
            calls = 0

            def predict_next(self, history):
                return float(history[-1])

            def predict_series(self, series, start, end=None):
                Counting.calls += 1
                return np.asarray(series[start - 1 : end - 1], dtype=float)

        trace = _diurnal(200)
        rep = serve_and_simulate(
            GuardedPredictor(Counting()), trace, 100,
            stream=StreamConfig(chunk_size=50),
        )
        assert rep.stream["chunks"] == 2
        assert Counting.calls == 2


# ----------------------------------------------------------------------
# block serving: one guard pass per block == the per-interval path, bytes
# ----------------------------------------------------------------------
#: An injector whose site never fires.  Any active injector makes the
#: guard decline every block pass, so this forces the per-interval path.
_NEVER_FIRES = "boom@never.fires:1"
#: Served values the scripted primary answers with a misbehaving raw.
_NAN_MARK, _SPIKE_MARK, _NEG_MARK = 101.25, 102.25, 103.25


class _Scripted(Predictor):
    """Forecasts 0.9 x the newest target value, except after a marker:
    NaN, a thousandfold spike (above the guard's bound) or -5.
    ``predict_series`` applies the same rule per target, so both serving
    paths get the same raws bit for bit."""

    name = "scripted"
    min_history = 1

    def __init__(self, target_channel: int = 0):
        self.target_channel = target_channel

    def _raw(self, last: float) -> float:
        if last == _NAN_MARK:
            return math.nan
        if last == _SPIKE_MARK:
            return 1000.0 * last
        if last == _NEG_MARK:
            return -5.0
        return 0.9 * last

    def _target(self, values):
        v = np.asarray(values, dtype=np.float64)
        return v if v.ndim == 1 else v[:, self.target_channel]

    def predict_next(self, history):
        return self._raw(float(self._target(history)[-1]))

    def predict_series(self, series, start, end=None):
        t = self._target(series)
        end = t.shape[0] if end is None else end
        return np.array([self._raw(float(t[i - 1])) for i in range(start, end)])


class _DeclineLog(GuardedPredictor):
    """A guard that notes the breaker state at every declined block."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.declined: list[tuple[str, str]] = []

    def serve_block(self, raws, target, first, history_window):
        reason = super().serve_block(raws, target, first, history_window)
        if reason is not None:
            self.declined.append((reason, self.breaker.state))
        return reason


def _block_run(
    trace: np.ndarray,
    start: int,
    ckpt,
    *,
    per_interval: bool,
    controller: bool,
    target_channel: int = 0,
    breaker: dict | None = None,
    inject: dict[int, str] | None = None,
    kill_at: int | None = None,
    resume: bool = False,
    history_window: int = 4096,
):
    """Stream ``trace[start:]`` through a guarded :class:`_Scripted`.

    ``breaker`` holds :class:`CircuitBreaker` arguments; ``inject``
    installs a fault spec while one chunk (by index) is served;
    ``kill_at`` crashes the feed before that chunk.  Returns the report
    (``None`` after a kill), the guard and the block counters.
    """
    reset_metrics()
    guard = _DeclineLog(
        _Scripted(target_channel), fallbacks=default_fallbacks(48),
        breaker=CircuitBreaker(**breaker) if breaker else None,
    )
    cfg = StreamConfig(
        chunk_size=16, size_jitter=5, seed=3, checkpoint_every=3,
        checkpoint_dir=str(ckpt), resume=resume,
        history_window=history_window,
    )
    server = StreamingServer(
        guard, trace[:start], config=cfg,
        monitor=ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=30.0)),
        controller=HybridController() if controller else None,
    )

    def chunks():
        for chunk in chunk_stream(trace[start:], config=cfg):
            if chunk.index == kill_at:
                raise _faults.SimulatedCrash("feed killed")
            spec = (inject or {}).get(chunk.index)
            if spec is None:
                yield chunk
            else:
                with _faults.injected(spec):
                    yield chunk

    report = None
    with _faults.injected(_NEVER_FIRES) if per_interval else nullcontext():
        try:
            report = server.run(chunks())
        except _faults.SimulatedCrash:
            if kill_at is None:
                raise
    counters = {
        name: snap["value"]
        for name, snap in get_registry().snapshot(prefix="stream.").items()
    }
    return report, guard, counters


def _served_bytes(report, guard, ckpt) -> dict:
    """Everything both paths must agree on, byte for byte."""
    return {
        "schedule": report.schedule.tobytes(),
        **{name: (ckpt / name).read_bytes() for name in (
            "schedule.f64", "actuals.f64", "checkpoint.json",
        )},
        "served_by": report.served_by,
        "breaker": _canon(guard.breaker.state_dict()),
        "serving_counters": report.serving_counters,
    }


def _assert_block_parity(tmp_path, trace, start, **kwargs):
    """Serve ``trace`` by blocks and forced per interval; both must
    write the same bytes.  Returns the block run's counters and guard."""
    runs = {}
    for per_interval in (False, True):
        ckpt = tmp_path / ("per-interval" if per_interval else "block")
        report, guard, counters = _block_run(
            trace, start, ckpt, per_interval=per_interval, **kwargs
        )
        runs[per_interval] = (
            _served_bytes(report, guard, ckpt), counters, guard
        )
    assert runs[False][0] == runs[True][0]
    forced = runs[True][1]
    assert forced.get("stream.block_intervals", 0) == 0
    assert forced["stream.block_declined.faults"] > 0
    _, block, guard = runs[False]
    assert block["stream.block_intervals"] > 0
    return block, guard


class TestBlockServing:
    @pytest.mark.parametrize("controller", [False, True])
    @pytest.mark.parametrize("mark, reason", [
        (_NAN_MARK, "nonfinite"),
        (_SPIKE_MARK, "above_bound"),
        (_NEG_MARK, "negative"),
    ])
    def test_declined_raw_serves_the_same_bytes(
        self, tmp_path, controller, mark, reason
    ):
        trace = _diurnal(700, seed=12)
        trace[[350, 420, 421, 600]] = mark
        counters, _ = _assert_block_parity(
            tmp_path, trace, 300, controller=controller,
        )
        assert counters[f"stream.block_declined.{reason}"] >= 3

    @pytest.mark.parametrize("controller", [False, True])
    def test_bound_window_follows_a_short_history(self, tmp_path, controller):
        """With a history window shorter than the guard's rolling
        window, a peak 29 intervals back no longer raises the bound, so
        the spike is clamped on both paths.  The peak and the spike sit
        in one block's series (chunk [386, 406), history from 362)."""
        trace = _diurnal(700, seed=17)
        trace[376] = 20000.0
        trace[404] = _SPIKE_MARK
        counters, _ = _assert_block_parity(
            tmp_path, trace, 300, controller=controller, history_window=24,
        )
        assert counters["stream.block_declined.above_bound"] == 1

    @pytest.mark.parametrize("controller", [False, True])
    def test_open_and_half_open_breaker_serve_the_same_bytes(
        self, tmp_path, controller
    ):
        trace = _diurnal(700, seed=13)
        for at in (340, 420, 500):
            trace[at : at + 3] = _NAN_MARK
        counters, guard = _assert_block_parity(
            tmp_path, trace, 300, controller=controller,
            breaker=dict(window=4, min_calls=2, cooldown=6, probes=8),
        )
        states = {state for reason, state in guard.declined if reason == "breaker"}
        assert states == {OPEN, HALF_OPEN}
        assert counters["stream.block_declined.breaker"] >= 2

    @pytest.mark.parametrize("controller", [False, True])
    def test_latched_drift_serves_the_same_bytes(self, tmp_path, controller):
        counters, guard = _assert_block_parity(
            tmp_path, _diurnal(700, seed=14), 300, controller=controller,
            inject={6: "drift@serve.predict:2=1.5"},
        )
        assert guard._drift_shift == 1.5
        assert counters["stream.block_declined.drift"] > 0
        assert counters["stream.block_declined.faults"] == 1

    @pytest.mark.parametrize("controller", [False, True])
    def test_multivariate_feed_serves_the_same_bytes(self, tmp_path, controller):
        trace = _mv(700, seed=15)
        trace[[400, 401, 550], 1] = _NAN_MARK
        counters, _ = _assert_block_parity(
            tmp_path, trace, 300, controller=controller, target_channel=1,
        )
        assert counters["stream.block_declined.nonfinite"] >= 2

    @pytest.mark.parametrize("controller", [False, True])
    def test_kill_and_resume_serve_the_same_bytes(self, tmp_path, controller):
        trace = _diurnal(700, seed=16)
        trace[[380, 520]] = _SPIKE_MARK
        runs = {}
        for per_interval in (False, True):
            ckpt = tmp_path / ("per-interval" if per_interval else "block")
            kwargs = dict(per_interval=per_interval, controller=controller)
            crashed, _, _ = _block_run(trace, 300, ckpt, kill_at=11, **kwargs)
            assert crashed is None
            report, guard, counters = _block_run(
                trace, 300, ckpt, resume=True, **kwargs
            )
            runs[per_interval] = _served_bytes(report, guard, ckpt)
            if not per_interval:
                assert counters["stream.block_intervals"] > 0
                assert counters["stream.block_declined.above_bound"] >= 1
        assert runs[False] == runs[True]
        ref, guard, _ = _block_run(
            trace, 300, tmp_path / "uninterrupted",
            per_interval=False, controller=controller,
        )
        assert _served_bytes(ref, guard, tmp_path / "uninterrupted") == runs[False]


# ----------------------------------------------------------------------
# a history window shorter than a block
# ----------------------------------------------------------------------
class _WindowLog(Predictor):
    """Logs every history it is handed and forecasts its mean, so each
    answer depends on the whole window it sees."""

    name = "window-log"
    min_history = 1

    def __init__(self, served: list, fitted: list, window: int):
        self.served = served
        self.fitted = fitted
        self.window = window

    def fit(self, history):
        self.fitted.append(np.array(history))
        return self

    def predict_next(self, history):
        h = np.array(history)
        self.served.append(h)
        return float(h.mean())


class _SeriesWindowLog(_WindowLog):
    """A :class:`_WindowLog` model with ``predict_series``, reading the
    last ``window`` rows before each target."""

    def predict_series(self, series, start, end=None):
        end = len(series) if end is None else end
        out = []
        for i in range(start, end):
            h = np.array(series[max(i - self.window, 0) : i])
            self.served.append(h)
            out.append(h.mean())
        return np.array(out)


def _window_logged(primary_cls, window: int):
    """A guard over a logging primary and one logging fallback; returns
    it with the served and fitted logs (primary and fallback share them,
    in call order)."""
    served, fitted = [], []
    guard = GuardedPredictor(
        primary_cls(served, fitted, window),
        fallbacks=[_WindowLog(served, fitted, window)],
    )
    return guard, served, fitted


def _expected_windows(initial, server, window: int, ks) -> list:
    """Interval ``k``'s history: the last ``window`` rows of the initial
    history followed by the served actuals before ``k``."""
    full = np.concatenate((initial, server._act_buf[: server._n]))
    n0 = len(initial)
    return [full[max(n0 + k - window, 0) : n0 + k] for k in ks]


def _assert_windows(got: list, want: list) -> None:
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.tobytes() == w.tobytes(), f"history #{k}"


class TestShortHistoryWindow:
    """``history_window`` (8) below the block length: every history that
    reaches the predictor, its fits and the fallback chain is the window
    of rows before its interval, whatever path served it."""

    WINDOW = 8

    @pytest.mark.parametrize("start", [5, 40])
    @pytest.mark.parametrize("primary_cls", [_WindowLog, _SeriesWindowLog])
    def test_ingest_serves_each_interval_its_window(self, primary_cls, start):
        reset_metrics()
        trace = _diurnal(240, seed=21)
        trace[start + 100 : start + 103] = np.nan  # a rejected chunk
        guard, served, fitted = _window_logged(primary_cls, self.WINDOW)
        cfg = StreamConfig(
            chunk_size=16, size_jitter=5, seed=4, deadline_s=120.0,
            history_window=self.WINDOW,
        )
        server = StreamingServer(
            guard, trace[:start], config=cfg,
            sanitizer=TraceSanitizer(policy="reject"),
        )
        with _faults.injected("drop@stream.chunk:3,stall@stream.chunk:7=600"):
            chunks = list(chunk_stream(trace[start:], config=cfg))
        rep = server.run(chunks)
        st_ = rep.stream
        assert st_["quarantined_chunks"] == 1
        assert st_["gap_intervals"] > 0 and len(st_["stalls"]) == 1
        if primary_cls is _SeriesWindowLog:
            blocks = get_registry().snapshot(prefix="stream.block_intervals")
            assert blocks["stream.block_intervals"]["value"] > 0
        # The intervals served through the predictor or its fallbacks:
        # all but the dropped chunk's gap and the stalled chunk's hold.
        stall = st_["stalls"][0]
        blind = set(range(stall["offset"], stall["offset"] + stall["intervals_held"]))
        arrived = {k for c in chunks for k in range(c.offset, c.offset + len(c.values))}
        gap = set(range(rep.schedule.size)) - arrived
        assert len(gap) == st_["gap_intervals"]
        blind |= gap
        ks = [k for k in range(rep.schedule.size) if k not in blind]
        _assert_windows(
            served, _expected_windows(trace[:start], server, self.WINDOW, ks)
        )
        assert fitted == []

    @pytest.mark.parametrize("start", [5, 40])
    def test_direct_entry_serves_each_interval_its_window(self, start):
        trace = _diurnal(120, seed=22)
        guard, served, fitted = _window_logged(_SeriesWindowLog, self.WINDOW)
        server = StreamingServer(
            guard, trace[:start],
            config=StreamConfig(history_window=self.WINDOW), refit_every=3,
        )
        server.serve(trace[start:40])
        server.serve(trace[40:])
        n = trace.size - start
        want = _expected_windows(trace[:start], server, self.WINDOW, range(n))
        _assert_windows(served, want)
        # Each refit fits the primary, then the fallback, on one window.
        _assert_windows(
            fitted, [w for w in want[::3] for _ in range(2)]
        )
