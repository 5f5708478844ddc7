#!/usr/bin/env python
"""CI smoke stage: every injected fault class must degrade, never crash.

Runs one tiny LoadDynamics fit per fault kind (see
:mod:`repro.resilience.faults`) and asserts the documented recovery
behaviour:

* ``nan_loss@nn.fit`` — every training diverges; the fit returns a
  degraded naive-fallback report instead of raising (env-driven path);
* ``linalg@gp.fit`` — the GP surrogate fails every iteration; BO
  degrades to random suggestions and still completes all trials;
* ``slow@nn.fit`` + ``--trial-timeout`` — slow trials are recorded
  infeasible with reason ``trial_timeout``;
* ``kill@objective`` + journal — the run dies mid-flight, then resumes
  from the journal and finishes with the journaled trials replayed;
* ``nan@serve.predict`` / ``boom@serve.predict`` — guarded serving sheds
  the sick model to the fallback chain (and trips the breaker);
* ``boom@adaptive.refit`` — a crashing refit keeps the incumbent model;
* ``drift@serve.predict`` — a latched level shift in the served forecast
  must fire the ``repro.obs.monitor`` drift detectors within a bounded
  delay and degrade the health verdict;
* ``corrupt@model.load`` + real truncation — loading surfaces a typed
  ``CorruptModelError`` or degrades to the fallback chain;
* ``boom@serve.predict`` under the hybrid controller — a dead forecast
  path opens the breaker and provisioning visibly shifts to the
  reactive tier (``decided_by``), never crashing the schedule;
* a drift-latched detector shared with the controller — burst mode
  engages while forecasts underpredict and clears (resetting the
  detector) once provisioning is adequate again;
* ``kill@stream.chunk`` + ``--resume`` — a streamed serve dies
  mid-chunk, resumes from the latest checkpoint, and produces a
  bit-for-bit identical schedule and report;
* ``stall@stream.chunk`` — a stalled feed degrades to hold-last for
  exactly the stalled intervals, then recovers to normal serving.

Exit status: 0 when every scenario recovers as specified, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import obs
from repro.core import FrameworkSettings, LoadDynamics, search_space_for
from repro.obs.logging import get_logger
from repro.resilience import SimulatedCrash, TrialJournal, faults

logger = get_logger("fault_smoke")


def _series() -> np.ndarray:
    x = np.arange(240.0)
    return np.abs(np.sin(x / 12)) * 400 + 100 + 10 * np.cos(x / 5)


def _fit(series, *, faults_spec=None, env_spec=None, **settings_overrides):
    settings = FrameworkSettings.tiny(**settings_overrides)
    ld = LoadDynamics(space=search_space_for("default", "tiny"), settings=settings)
    if env_spec is not None:
        os.environ[faults.FAULTS_ENV] = env_spec
        faults.clear_injector()
        try:
            return ld.fit(series)
        finally:
            del os.environ[faults.FAULTS_ENV]
            faults.clear_injector()
    if faults_spec is not None:
        with faults.injected(faults_spec):
            return ld.fit(series)
    return ld.fit(series)


def smoke_nan_loss(series) -> None:
    """Divergence guard + retry + all-infeasible degradation (env path)."""
    _, report = _fit(series, env_spec="nan_loss@nn.fit:*", max_iters=3)
    assert report.degraded, "all-diverged run must return a degraded report"
    assert report.degraded_reason == "no_feasible_trials"
    assert all(
        t.metadata.get("reason") == "training_diverged" for t in report.trials
    ), "every trial must be recorded as diverged"


def smoke_gp_linalg(series) -> None:
    """Surrogate failure must fall back to random suggestions, not abort."""
    _, report = _fit(series, faults_spec="linalg@gp.fit:*", max_iters=4)
    assert not report.degraded, "GP failure must not degrade the whole fit"
    assert report.n_trials == 4
    assert report.telemetry["n_degraded_suggests"] >= 1


def smoke_trial_timeout(series) -> None:
    """A slow trial must be cut off at the deadline and recorded."""
    _, report = _fit(
        series,
        faults_spec="slow@nn.fit:*=0.05",
        max_iters=2,
        trial_timeout_s=0.02,
    )
    assert report.degraded
    assert all(
        t.metadata.get("reason") == "trial_timeout" for t in report.trials
    ), "slow trials must be recorded with reason trial_timeout"


def smoke_kill_and_resume(series) -> None:
    """Crash mid-run, resume from the journal, finish the budget."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "smoke.jsonl"
        ld = LoadDynamics(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=3),
        )
        try:
            with faults.injected("kill@objective:2"):
                ld.fit(series, journal=journal)
        except SimulatedCrash:
            logger.info("simulated crash landed as planned")
        else:
            raise AssertionError("kill fault did not fire")
        _, trials = TrialJournal.load(journal)
        assert len(trials) == 1, "one trial must have survived the crash"

        ld2 = LoadDynamics(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=3),
        )
        _, report = ld2.fit(series, journal=journal, resume=True)
        assert report.n_resumed == 1
        assert report.n_trials == 3
        assert not report.degraded


def smoke_serving_nan_prediction(series) -> None:
    """NaN forecasts must be shed to the fallback chain, never served."""
    from repro.baselines import LastValuePredictor, walk_forward
    from repro.serving import GuardedPredictor, default_fallbacks

    guarded = GuardedPredictor(
        LastValuePredictor(), fallbacks=default_fallbacks(24)
    )
    with faults.injected("nan@serve.predict:*"):
        preds = walk_forward(guarded, series, 200, 230)
    assert np.all(np.isfinite(preds)) and np.all(preds >= 0)
    assert guarded.served_by.get("primary", 0) == 0, \
        "a NaN forecast must never be served as the primary's"
    assert sum(guarded.served_by.values()) == 30, "every interval must be served"


def smoke_serving_breaker(series) -> None:
    """A persistently crashing model must trip the breaker and be shed."""
    from repro.baselines import LastValuePredictor, walk_forward
    from repro.serving import OPEN, GuardedPredictor

    guarded = GuardedPredictor(LastValuePredictor())
    with faults.injected("boom@serve.predict:*"):
        preds = walk_forward(guarded, series, 200, 230)
    assert np.all(np.isfinite(preds))
    assert guarded.breaker.state == OPEN, "breaker must open under sustained failure"
    assert any(t[1] == OPEN for t in guarded.breaker.transitions)


def smoke_refit_crash(series) -> None:
    """A crashing drift-triggered refit keeps the incumbent model serving."""
    from repro.baselines import walk_forward
    from repro.core import AdaptiveLoadDynamics

    shifted = np.concatenate([series[:120], series[:120] * 8 + 500])
    adaptive = AdaptiveLoadDynamics(
        space=search_space_for("default", "tiny"),
        settings=FrameworkSettings.tiny(max_iters=2, epochs=4),
        drift_window=4,
        drift_factor=1.5,
        min_refit_gap=10,
        refit_retries=0,
    )
    with faults.injected("boom@adaptive.refit:2"):
        preds = walk_forward(adaptive, shifted, 100, 160)
    assert np.all(np.isfinite(preds))
    assert adaptive.predictor is not None, "incumbent model must survive the crash"
    assert adaptive.failed_refits >= 1, "the failed refit must be recorded"


def smoke_drift_detection(series) -> None:
    """An injected serving-side drift must latch the monitor's detectors."""
    from repro.baselines import LastValuePredictor
    from repro.obs.monitor import ForecastMonitor
    from repro.serving import GuardedPredictor, serve_and_simulate

    monitor = ForecastMonitor()
    guarded = GuardedPredictor(LastValuePredictor())
    # Calibration needs a stationary pre-fault error stream: a slow
    # cycle + mild noise keeps persistence APE at a steady ~2%, so the
    # only regime change the detectors can see is the injected one.
    rng = np.random.default_rng(42)
    x = np.arange(240.0)
    steady = np.abs(np.sin(x / 288.0)) * 400 + 300 + rng.normal(0, 5, 240)
    # The served forecast shifts x4 from invocation 60 onward while the
    # actuals stay put — exactly the silent failure mode the detectors
    # exist to catch.
    with faults.injected("drift@serve.predict:60=4"):
        report = serve_and_simulate(guarded, steady, 120, monitor=monitor)
    assert report.drifted, "injected drift must latch a detector"
    fired = [d for d in report.drift if d["drifted"]]
    assert any(
        d["fired_at"] is not None and 60 <= d["fired_at"] <= 100 for d in fired
    ), f"detectors must fire within a bounded delay of the shift: {fired}"
    assert report.health["status"] != "healthy", \
        "a latched drift detector must degrade the health verdict"


def smoke_corrupt_model(series) -> None:
    """Corrupted predictor directories raise typed errors / degrade cleanly."""
    from repro.core import LSTMHyperparameters, LoadDynamicsPredictor, MinMaxScaler
    from repro.core.predictor import NaiveLastValueModel
    from repro.serving import CorruptModelError, GuardedPredictor

    with tempfile.TemporaryDirectory() as tmp:
        predictor = LoadDynamicsPredictor(
            model=NaiveLastValueModel(),
            scaler=MinMaxScaler().fit(series),
            hyperparameters=LSTMHyperparameters(1, 1, 1, 1),
            family="naive",
        )
        directory = predictor.save(Path(tmp) / "model")

        # Injected disk corruption on an intact directory.
        try:
            with faults.injected("corrupt@model.load:*"):
                GuardedPredictor.load(directory)
        except CorruptModelError:
            pass
        else:
            raise AssertionError("corrupt@model.load must raise CorruptModelError")

        # Real on-disk truncation of the manifest.
        manifest = directory / "predictor.json"
        manifest.write_text(manifest.read_text()[: 40])
        try:
            GuardedPredictor.load(directory)
        except CorruptModelError:
            pass
        else:
            raise AssertionError("truncated manifest must raise CorruptModelError")

        guarded = GuardedPredictor.load(directory, on_corrupt="fallback")
        assert guarded.primary is None
        p = guarded.predict_next(series)
        assert np.isfinite(p) and p >= 0, "fallback chain must still serve"


def smoke_controller_reactive_takeover(series) -> None:
    """Forecast outage: the hybrid controller must go reactive, not down."""
    from repro.autoscale import HybridController, PredictivePolicy
    from repro.baselines import LastValuePredictor
    from repro.serving import OPEN, GuardedPredictor

    guarded = GuardedPredictor(LastValuePredictor())
    policy = PredictivePolicy(guarded, controller=HybridController())
    with faults.injected("boom@serve.predict:*"):
        schedule = policy.schedule(series, 200)
    assert np.all(np.isfinite(schedule)) and np.all(schedule >= 0), \
        "the schedule must stay finite through a total forecast outage"
    assert guarded.breaker.state == OPEN, "sustained crashes must open the breaker"
    ctl = policy.controller
    assert ctl.decided_by.get("reactive", 0) > 0, \
        "an open breaker must shift decisions to the reactive tier"
    assert ctl.decided_by.get("reactive", 0) >= ctl.decided_by.get("hybrid", 0), \
        "reactive provenance must dominate once the breaker is open"


def smoke_controller_burst(series) -> None:
    """Drift latch -> burst engages; healthy provisioning -> burst clears."""
    from repro.autoscale import ControllerConfig, HybridController
    from repro.obs.monitor import PageHinkleyDetector

    # Page-Hinkley fires on error *increase* only, so the post-clear
    # reset recalibrates quietly — the latch/clear cycle is exact.
    detector = PageHinkleyDetector()
    controller = HybridController(
        ControllerConfig(burst_streak=None, burst_clear=5),
        drift_detector=detector,
    )
    arrivals = np.full(100, 100.0)
    # Phase 1 (accurate), phase 2 (forecasts silently at 40% -> detector
    # fires, burst latches), phase 3 (accurate again -> burst clears).
    for i in range(1, arrivals.size):
        forecast = 100.0 * (0.4 if 20 <= i < 50 else 1.0)
        controller.step(forecast, arrivals[:i])
    assert controller.burst_episodes == 1, \
        f"burst must latch exactly once, got {controller.burst_episodes}"
    assert controller.burst_reason is None and not controller.burst, \
        "burst must clear after sustained adequate provisioning"
    assert not detector.drifted, \
        "clearing burst must reset the still-latched drift detector"


def _stream_serve(series, start, *, ckpt, resume=False, faults_spec=None,
                  deadline_s=None):
    from repro.obs.metrics import reset_metrics
    from repro.obs.monitor import ForecastMonitor
    from repro.serving import (
        GuardedPredictor,
        StreamConfig,
        TraceSanitizer,
        default_fallbacks,
        serve_and_simulate,
    )

    reset_metrics()  # counter parity needs a fresh registry per run
    guarded = GuardedPredictor(None, fallbacks=default_fallbacks(24))
    cfg = StreamConfig(
        chunk_size=16, size_jitter=4, seed=5, checkpoint_every=2,
        checkpoint_dir=ckpt, resume=resume, deadline_s=deadline_s,
    )
    kwargs = dict(
        monitor=ForecastMonitor(), stream=cfg,
        sanitizer=TraceSanitizer(policy="interpolate"),
    )
    if faults_spec is not None:
        with faults.injected(faults_spec):
            return serve_and_simulate(guarded, series, start, **kwargs)
    return serve_and_simulate(guarded, series, start, **kwargs)


def smoke_stream_kill_resume(series) -> None:
    """Kill a streamed serve mid-chunk; resume must be bit-for-bit."""
    with tempfile.TemporaryDirectory() as tmp:
        ref = _stream_serve(series, 120, ckpt=str(Path(tmp) / "ref"))
        crash_dir = str(Path(tmp) / "crash")
        try:
            _stream_serve(series, 120, ckpt=crash_dir,
                          faults_spec="kill@stream.chunk:5")
        except SimulatedCrash:
            logger.info("simulated stream crash landed as planned")
        else:
            raise AssertionError("kill@stream.chunk did not fire")
        assert (Path(crash_dir) / "checkpoint.json").exists(), \
            "the crashed run must have left a checkpoint behind"
        resumed = _stream_serve(series, 120, ckpt=crash_dir, resume=True)
        assert resumed.schedule.tobytes() == ref.schedule.tobytes(), \
            "resumed schedule must be bit-for-bit identical"
        assert resumed.serving_counters == ref.serving_counters, \
            "resumed serving counters must match the uninterrupted run"
        assert resumed.result.vm_seconds == ref.result.vm_seconds


def smoke_stream_stall(series) -> None:
    """A stalled feed must degrade to hold-last, then recover in place."""
    with tempfile.TemporaryDirectory() as tmp:
        report = _stream_serve(
            series, 120, ckpt=str(Path(tmp) / "ck"), deadline_s=30.0,
            faults_spec="stall@stream.chunk:3=120",
        )
        stalls = report.stream["stalls"]
        assert len(stalls) == 1, f"exactly one stall expected, got {stalls}"
        stall = stalls[0]
        assert stall["gap_s"] > stall["deadline_s"]
        assert report.stream["held_intervals"] == stall["intervals_held"] > 0
        held = report.schedule[
            stall["offset"] : stall["offset"] + stall["intervals_held"]
        ]
        assert np.all(held == held[0]), "stalled intervals must hold last"
        assert report.stream["served_intervals"] == (
            report.stream["intervals"] - stall["intervals_held"]
        ), "serving must recover to normal after the stall"
        assert np.all(np.isfinite(report.schedule))


SCENARIOS = (
    smoke_nan_loss,
    smoke_gp_linalg,
    smoke_trial_timeout,
    smoke_kill_and_resume,
    smoke_serving_nan_prediction,
    smoke_serving_breaker,
    smoke_refit_crash,
    smoke_drift_detection,
    smoke_corrupt_model,
    smoke_controller_reactive_takeover,
    smoke_controller_burst,
    smoke_stream_kill_resume,
    smoke_stream_stall,
)


def main() -> int:
    obs.configure_logging("INFO")
    series = _series()
    failed = 0
    for scenario in SCENARIOS:
        try:
            scenario(series)
        except AssertionError as exc:
            logger.error("FAIL %s: %s", scenario.__name__, exc)
            failed += 1
        except Exception:
            logger.exception("CRASH %s (fault escaped the recovery path)",
                             scenario.__name__)
            failed += 1
        else:
            logger.info("ok %s", scenario.__name__)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
