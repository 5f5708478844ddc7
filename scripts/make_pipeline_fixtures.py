#!/usr/bin/env python
"""Record pipeline and simulator behaviour for bitwise equivalence tests.

Usage: ``python scripts/make_pipeline_fixtures.py [pipeline] [cloudsim]
[training] [controller] [state]`` (every section when none is named).

**pipeline** — pre-refactor D=1 behaviour.

The multivariate refactor threads a channel dimension D through
scaling, windowing, caching, inference, and serving while promising the
default D=1 path stays *bit-for-bit* unchanged.  This script freezes
the pre-refactor behaviour of the three stages that promise covers:

* ``prepare_data`` — scaled series, split indices, scaler state, and
  the window matrices for two history lengths;
* a seeded ``LSTMRegressor.forward_inference`` pass (the fast path);
* an end-to-end seeded tiny fit's ``predict_series``/``predict_next``
  outputs over the test split.

Float arrays are stored as hex-encoded little-endian float64 bytes so
the regression test (``tests/test_equivalence_multivariate.py``)
compares raw bits, not values-within-tolerance.  A ``provenance`` block
names the numpy, scipy, bit generator and BLAS/LAPACK builds the
recording ran under.  Re-running this script under any refactor that
claims D=1 equivalence must reproduce
``tests/data/equivalence_pipeline.json`` byte-for-byte, apart from that
block.

**cloudsim** — ``CloudSimulator.run`` outputs (hex-encoded
``turnaround_seconds``, ``makespan_seconds``, under/over-provisioning,
and ``vm_seconds`` as a hex float) for a fixed set of cases, together
with their inputs and the numpy version and bit generator they were
recorded under.  The simulator is elementwise numpy over PCG64 draws
(no LAPACK), so ``tests/test_autoscale.py`` compares these bytes
exactly; a rewrite of the simulator must reproduce
``tests/data/cloudsim_golden.json`` byte-for-byte.

**training** — ``LSTMRegressor.fit`` outcomes: hex-encoded trained
parameters and the ``train_loss``/``val_loss``/``grad_norm`` histories
for a grid covering D in {1, 4}, 1-3 layers, H in {3, 8}, every
optimizer x loss pair, a ragged final batch, and early stopping with
best-weight restore, together with the numpy version and bit generator
they were recorded under.  Training is elementwise numpy plus small
GEMMs whose reduction order the kernel does not choose, so
``tests/test_training_golden.py`` compares these bytes exactly; a
rewrite of the LSTM training kernel must reproduce
``tests/data/training_golden.json`` byte-for-byte.

**controller** — ``HybridController.step`` decisions (``vms``,
``decided_by``, ``rails``, ``burst``, and ``target``/``forecast``/
``correction`` as hex floats) and the final ``state_dict`` for four
configurations (default, ``passthrough()``, rails with a cooldown, a
``PageHinkleyDetector``) over seeded traces with NaN outages, spikes,
burst episodes and signed zeros, plus the sha256 of ``checkpoint.json``
and both sidecars from a deterministic streamed run with NaN gaps.  The
controller is scalar Python floats over a sorted error window, so
``tests/test_controller_golden.py`` compares these bytes exactly; a
rewrite of the controller must reproduce
``tests/data/controller_golden.json`` byte-for-byte.

**state** — the exact ``json.dumps(obj.state_dict())`` string (no
``sort_keys``, so key order is pinned too) of every stateful serving
component after a seeded walk from :data:`STATE_CASES`: a circuit
breaker through open, half-open and closed; guards with serve counts, a
latched drift shift and an adaptive primary; calibrated and fired CUSUM
and Page-Hinkley detectors; quality and SLO trackers; composed
monitors; controllers; and adaptive bookkeeping with a CUSUM detector.
The walks are scalar Python arithmetic over seeded draws, so
``tests/test_state_golden.py`` compares these strings exactly; a
rewrite of the persistence code must reproduce
``tests/data/state_golden.json`` byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.autoscale.cloudsim import CloudSimulator, VMSpec  # noqa: E402
from repro.autoscale.controller import (  # noqa: E402
    ControllerConfig,
    HybridController,
)
from repro.baselines.naive import LastValuePredictor  # noqa: E402
from repro.core import (  # noqa: E402
    AdaptiveLoadDynamics,
    FrameworkSettings,
    LoadDynamics,
    search_space_for,
)
from repro.core.data import prepare_data  # noqa: E402
from repro.nn.network import LSTMRegressor  # noqa: E402
from repro.obs.logging import get_logger  # noqa: E402
from repro.obs.metrics import reset_metrics  # noqa: E402
from repro.obs.monitor import (  # noqa: E402
    CusumDetector,
    ForecastMonitor,
    PageHinkleyDetector,
    QualityTracker,
    SLOTracker,
)
from repro.resilience import faults  # noqa: E402
from repro.serving import (  # noqa: E402
    CircuitBreaker,
    GuardedPredictor,
    StreamConfig,
    StreamingServer,
    chunk_stream,
    default_fallbacks,
)

logger = get_logger("scripts.fixtures")

MAX_ITERS = 2
WINDOW_LENGTHS = (3, 8)


def fixture_series() -> np.ndarray:
    """The conftest ``sine_series``: seeded sinusoid + noise, length 240."""
    t = np.arange(240)
    rng = np.random.default_rng(7)
    return 100.0 + 40.0 * np.sin(2 * np.pi * t / 24.0) + rng.normal(0, 2.0, 240)


def hex64(a: np.ndarray) -> str:
    """Hex dump of a float64 array's little-endian bytes (bit-exact)."""
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes().hex()


def record_prepare_data(series: np.ndarray) -> dict:
    prepared = prepare_data(series, FrameworkSettings.tiny())
    windows = {}
    for n in WINDOW_LENGTHS:
        X_train, y_train, X_val, y_val = prepared.window_cache.get(n)
        windows[str(n)] = {
            "X_train_shape": list(X_train.shape),
            "X_train": hex64(X_train),
            "y_train": hex64(y_train),
            "X_val_shape": list(X_val.shape),
            "X_val": hex64(X_val),
            "y_val": hex64(y_val),
        }
    return {
        "i_train_end": prepared.i_train_end,
        "i_val_end": prepared.i_val_end,
        "scaler_state": prepared.scaler.state(),
        "scaled": hex64(prepared.scaled),
        "windows": windows,
    }


def record_forward_inference() -> dict:
    model = LSTMRegressor(hidden_size=8, num_layers=2, seed=11)
    rng = np.random.default_rng(23)
    x = rng.uniform(0.0, 1.0, size=(17, 12, 1))
    out = model.predict(x)
    return {
        "hidden_size": 8,
        "num_layers": 2,
        "seed": 11,
        "batch_shape": list(x.shape),
        "input_seed": 23,
        "output": hex64(out),
    }


def record_fit_predictions(series: np.ndarray) -> dict:
    ld = LoadDynamics(
        space=search_space_for("default", "tiny"),
        settings=FrameworkSettings.tiny(max_iters=MAX_ITERS),
    )
    predictor, report = ld.fit(series)
    i_test = int(round(0.8 * series.size))
    preds = predictor.predict_series(series, i_test)
    return {
        "max_iters": MAX_ITERS,
        "best_hyperparameters": report.best_hyperparameters.as_dict(),
        "i_test": i_test,
        "predict_series": hex64(preds),
        "predict_next": hex64(np.array([predictor.predict_next(series[:i_test])])),
    }


def cloudsim_cases() -> list[dict]:
    """Simulator inputs covering every branch of ``CloudSimulator.run``.

    Sizes are chosen around the simulator's buffer: one run of many
    small intervals adds up to more than a block, and single intervals
    larger than the buffer are walked in leaves.
    """
    rng = np.random.default_rng(2020)
    mixed_a = rng.integers(0, 40, 60).astype(np.float64)
    mixed_p = np.round(mixed_a * rng.uniform(0.5, 1.5, 60), 2)
    small_a = rng.integers(150, 270, 1500).astype(np.float64)
    small_a[::17] = 0.0
    small_p = np.ceil(small_a * rng.uniform(0.8, 1.2, 1500))
    return [
        {"name": "empty", "arrivals": [], "provisioned": [], "spec": {},
         "seed": 0},
        {"name": "zero_arrivals", "arrivals": [0.0, 0.0, 5.0, 0.0, 3.0],
         "provisioned": [3.0, 0.0, 5.0, 2.0, 1.0], "spec": {}, "seed": 0},
        {"name": "fractional", "arrivals": [2.4, 7.01, 0.2, 11.5],
         "provisioned": [1.2, 7.0, 0.0, 12.9], "spec": {}, "seed": 7},
        {"name": "all_cold_waves", "arrivals": [37.0], "provisioned": [0.0],
         "spec": {"max_concurrent_startups": 4}, "seed": 0},
        {"name": "no_jitter", "arrivals": mixed_a.tolist(),
         "provisioned": mixed_p.tolist(),
         "spec": {"job_jitter_frac": 0.0}, "seed": 0},
        {"name": "half_jitter", "arrivals": mixed_a.tolist(),
         "provisioned": mixed_p.tolist(),
         "spec": {"job_jitter_frac": 0.5, "startup_seconds": 90.0,
                  "max_concurrent_startups": 3}, "seed": 7},
        {"name": "many_small_cross_block", "arrivals": small_a.tolist(),
         "provisioned": small_p.tolist(), "spec": {}, "seed": 7},
        {"name": "large_intervals", "arrivals": [200000.0, 100000.0, 50.0],
         "provisioned": [199000.0, 100010.0, 0.0],
         "spec": {"job_jitter_frac": 0.25}, "seed": 0},
        {"name": "one_over_block", "arrivals": [10.0, 300000.0, 0.0, 4.0],
         "provisioned": [12.0, 298500.0, 3.0, 0.0],
         "spec": {"startup_seconds": 0.0, "max_concurrent_startups": 1},
         "seed": 0},
    ]


def record_cloudsim() -> dict:
    cases = []
    for case in cloudsim_cases():
        sim = CloudSimulator(spec=VMSpec(**case["spec"]), seed=case["seed"])
        res = sim.run(np.asarray(case["arrivals"], dtype=np.float64),
                      np.asarray(case["provisioned"], dtype=np.float64))
        cases.append({
            **case,
            "turnaround_seconds": hex64(res.turnaround_seconds),
            "makespan_seconds": hex64(res.makespan_seconds),
            "under_provisioned": hex64(res.under_provisioned),
            "over_provisioned": hex64(res.over_provisioned),
            "vm_seconds": float(res.vm_seconds).hex(),
        })
    return {
        "numpy": np.__version__,
        "bit_generator": type(np.random.default_rng().bit_generator).__name__,
        "cases": cases,
    }


def training_cases() -> list[dict]:
    """``fit`` grid: each optimizer x loss pair once, with input width,
    depth and hidden size rotating so every (D, layers) pair and both
    hidden sizes appear.  37 training windows in batches of 8 leave a
    ragged final batch of 5; the last case adds a learning rate high
    enough that validation loss turns up and early stopping fires."""
    cases = []
    for k, (opt, loss) in enumerate(
        (o, l) for o in ("adam", "rmsprop", "sgd") for l in ("mse", "mae", "huber")
    ):
        cases.append({
            "name": f"{opt}_{loss}", "optimizer": opt, "loss": loss,
            "input_size": (1, 4)[k % 2], "num_layers": 1 + k % 3,
            "hidden_size": (3, 8)[(k // 3) % 2], "seed": k,
            "data_seed": 100 + k, "n_train": 37, "n_val": 11, "T": 6,
            "epochs": 6, "batch_size": 8, "lr": 0.01, "patience": 2,
        })
    cases.append({
        **cases[0], "name": "adam_mse_early_stop", "seed": 9, "data_seed": 109,
        "epochs": 12, "lr": 0.3, "patience": 2,
    })
    return cases


def training_data(case: dict) -> tuple[np.ndarray, ...]:
    """Seeded windows and targets (the target is the mean of channel 0
    over the last three steps)."""
    rng = np.random.default_rng(case["data_seed"])
    shape = (case["n_train"] + case["n_val"], case["T"], case["input_size"])
    x = rng.uniform(0.0, 1.0, size=shape)
    y = x[:, -3:, 0].mean(axis=1)
    n = case["n_train"]
    return x[:n], y[:n], x[n:], y[n:]


def record_training() -> dict:
    cases = []
    for case in training_cases():
        x, y, vx, vy = training_data(case)
        model = LSTMRegressor(hidden_size=case["hidden_size"],
                              num_layers=case["num_layers"],
                              input_size=case["input_size"], seed=case["seed"])
        history = model.fit(x, y, epochs=case["epochs"],
                            batch_size=case["batch_size"], lr=case["lr"],
                            optimizer=case["optimizer"], loss=case["loss"],
                            validation=(vx, vy), patience=case["patience"])
        cases.append({
            **case,
            "params": [hex64(p) for p in model.params],
            "train_loss": [float(v).hex() for v in history.train_loss],
            "val_loss": [float(v).hex() for v in history.val_loss],
            "grad_norm": [float(v).hex() for v in history.grad_norm],
            "best_epoch": history.best_epoch,
            "stopped_early": history.stopped_early,
        })
    return {
        "numpy": np.__version__,
        "bit_generator": type(np.random.default_rng().bit_generator).__name__,
        "cases": cases,
    }


#: Controller configurations, by name; ``page_hinkley`` also attaches a
#: default :class:`PageHinkleyDetector`.  ``rails_cooldown`` corrects by
#: the headroom quantile alone, so each ``correction`` is a quantile's
#: exact bits.
CONTROLLER_CONFIGS = {
    "default": {},
    "passthrough": {
        "kp": 0.0, "ki": 0.0, "kd": 0.0, "headroom_quantile": None,
        "burst_streak": None,
    },
    "rails_cooldown": {
        "kp": 0.0, "ki": 0.0, "headroom_quantile": 0.9, "burst_quantile": 0.6,
        "min_vms": 2, "max_vms": 400, "max_step_up": 25, "max_step_down": 10,
        "scale_down_cooldown": 4, "error_window": 16,
    },
    "page_hinkley": {"burst_streak": None, "burst_clear": 5},
}
CONTROLLER_TRACES = ("outages", "bursts", "signed_zeros")
CONTROLLER_STEPS = 200


def controller_trace(name: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded ``(forecasts, arrivals)`` of ``CONTROLLER_STEPS`` intervals.

    ``outages``: Poisson arrivals, noisy persistence forecasts, NaN
    outage windows in both and single spikes.  ``bursts``: a diurnal
    load whose forecast lags through geometric ramp episodes, so the
    controller underprovisions for long streaks.  ``signed_zeros``: small
    integer-valued load with ``+0.0``/``-0.0`` in both series, so the
    error window holds many duplicate and zero errors.
    """
    rng = np.random.default_rng(seed)
    n = CONTROLLER_STEPS
    if name == "outages":
        arrivals = rng.poisson(80, n).astype(np.float64)
        forecasts = np.concatenate(([80.0], arrivals[:-1])) + rng.normal(0, 6, n)
        for lo in rng.integers(0, n - 10, 4):
            arrivals[lo : lo + rng.integers(2, 8)] = np.nan
        for lo in rng.integers(0, n - 10, 3):
            forecasts[lo : lo + rng.integers(1, 6)] = np.nan
        spikes = rng.integers(0, n, 5)
        arrivals[spikes] = rng.uniform(1e3, 1e5, spikes.size)
    elif name == "bursts":
        t = np.arange(n)
        base = 100.0 + 40.0 * np.sin(2 * np.pi * t / 48) + rng.normal(0, 4, n)
        for lo in (30, 95, 150):
            ramp = 15 + int(rng.integers(0, 10))
            base[lo : lo + ramp] *= np.geomspace(1.0, 6.0, ramp)
        arrivals = np.round(base, 1)
        forecasts = np.concatenate(([100.0], 0.8 * arrivals[:-1]))
        arrivals[rng.integers(0, n, 3)] = np.nan
    elif name == "signed_zeros":
        arrivals = rng.integers(0, 4, n).astype(np.float64)
        forecasts = rng.integers(0, 4, n).astype(np.float64)
        arrivals[rng.random(n) < 0.3] = -0.0
        forecasts[rng.random(n) < 0.3] = -0.0
        arrivals[rng.random(n) < 0.05] = np.nan
    else:
        raise ValueError(f"unknown controller trace {name!r}")
    return forecasts, arrivals


def make_controller(case: dict) -> HybridController:
    """Must match ``make_controller`` in tests/test_controller_golden.py."""
    detector = PageHinkleyDetector() if case["page_hinkley"] else None
    return HybridController(
        ControllerConfig(**case["config_kwargs"]), drift_detector=detector,
    )


def controller_cases() -> list[dict]:
    return [
        {"name": f"{config}_{trace}", "config": config,
         "config_kwargs": kwargs, "page_hinkley": config == "page_hinkley",
         "trace": trace, "seed": 300 + k}
        for config, kwargs in CONTROLLER_CONFIGS.items()
        for k, trace in enumerate(CONTROLLER_TRACES)
    ]


def stream_digests() -> dict:
    """sha256 of every file a deterministic streamed run checkpoints.

    ``LastValuePredictor`` + default ``HybridController`` +
    ``ForecastMonitor`` over a seeded Poisson feed with NaN gaps (short
    ones the default sanitizer interpolates, one whole-chunk outage it
    cannot), checkpointing every other chunk.
    """
    rng = np.random.default_rng(17)
    trace = rng.poisson(60, 700).astype(np.float64)
    trace[rng.integers(200, 690, 12)] = np.nan
    trace[500:540] = np.nan
    case = {"trace": hex64(trace), "start": 200,
            "stream_config": {"chunk_size": 24, "size_jitter": 6, "seed": 5,
                              "checkpoint_every": 2}}
    return {**case, "sha256": stream_run_digests(case)}


def stream_run_digests(case: dict) -> dict:
    """Must match ``stream_run_digests`` in tests/test_controller_golden.py."""
    trace = np.frombuffer(bytes.fromhex(case["trace"]), dtype="<f8")
    start = case["start"]
    reset_metrics()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = StreamConfig(**case["stream_config"], checkpoint_dir=tmp)
        server = StreamingServer(
            LastValuePredictor(), trace[:start], config=cfg,
            monitor=ForecastMonitor(), controller=HybridController(),
        )
        server.run(chunk_stream(trace[start:], config=cfg))
        return {
            name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
            for name in ("checkpoint.json", "schedule.f64", "actuals.f64")
        }


def record_controller() -> dict:
    cases = []
    for case in controller_cases():
        forecasts, arrivals = controller_trace(case["trace"], case["seed"])
        controller = make_controller(case)
        decisions = [
            controller.step(forecasts[i], arrivals[: i + 1])
            for i in range(forecasts.size)
        ]
        state = controller.state_dict()
        del state["decisions"]  # recorded column by column below
        cases.append({
            **case,
            "forecasts": hex64(forecasts),
            "arrivals": hex64(arrivals),
            "vms": [d.vms for d in decisions],
            "decided_by": [d.decided_by for d in decisions],
            "rails": [list(d.rails) for d in decisions],
            "burst": [d.burst for d in decisions],
            "target": [d.target.hex() for d in decisions],
            "forecast": [d.forecast.hex() for d in decisions],
            "correction": [d.correction.hex() for d in decisions],
            "state_dict": state,
        })
    return {
        "numpy": np.__version__,
        "bit_generator": type(np.random.default_rng().bit_generator).__name__,
        "stream": stream_digests(),
        "cases": cases,
    }


def _level_shift(seed: int, n: int, at: int) -> np.ndarray:
    """Seeded noisy load that doubles from interval ``at`` on."""
    rng = np.random.default_rng(seed)
    series = 100.0 + rng.normal(0.0, 3.0, n)
    series[at:] *= 2.0
    return series


def _walk_breaker(breaker: CircuitBreaker) -> None:
    """closed -> open -> half-open -> closed -> open -> half-open, ending
    mid-probation with a full outcome window."""
    for event in "fff" "aaa" "ss" "ssfsff" "aaa" "s":
        if event == "a":
            breaker.allow()
        elif event == "s":
            breaker.record_success()
        else:
            breaker.record_failure()


def _walk_guard(guard: GuardedPredictor) -> None:
    """Two NaN forecasts open the breaker (the fallbacks serve while it
    is open), then a 1.5x drift latches on the primary."""
    series = _level_shift(61, 60, 60)
    spec = "nan@serve.predict:3,nan@serve.predict:4,drift@serve.predict:12=1.5"
    with faults.injected(spec):
        for i in range(8, series.size):
            guard.predict_next(series[:i])


def _adaptive() -> AdaptiveLoadDynamics:
    """Adaptive wrapper around a stand-in incumbent model, as a resumed
    process has it once the model artifact is loaded."""
    adaptive = AdaptiveLoadDynamics(
        drift_window=6, min_refit_gap=8, refit_retries=0,
        refit_on_drift=CusumDetector(threshold=4.0, warmup=5),
    )
    adaptive.predictor = LastValuePredictor()
    return adaptive


def _walk_adaptive(adaptive: AdaptiveLoadDynamics, seed: int = 62,
                   step=None) -> None:
    """Refit bookkeeping as if an initial fit at 40 intervals had
    validated at 6.5%: the level shift fires the detector, and the drift
    refit it triggers fails (``boom@adaptive.refit``), so no model is
    ever trained."""
    adaptive.refit_history.append(40)
    adaptive._best_val_mape = 6.5
    series = _level_shift(seed, 75, 60)
    with faults.injected("boom@adaptive.refit:*"):
        for i in range(40, series.size):
            (step or adaptive.fit)(series[:i])


def _walk_guard_adaptive(guard: GuardedPredictor) -> None:
    """The adaptive walk, driven through the guard's ``predict_next``."""
    _walk_adaptive(guard.primary, 63, guard.predict_next)


def _walk_errors(seed: int, calm: float, shifted: float, tail=()):
    """Walk for a detector: calm errors calibrate it, a shift fires it,
    then the ``tail`` errors follow."""
    def walk(detector) -> None:
        rng = np.random.default_rng(seed)
        errors = np.concatenate(
            (rng.normal(calm, 1.0, 20), rng.normal(shifted, 1.0, 8), tail)
        )
        for e in errors.tolist():
            detector.update(e)
    return walk


def _walk_quality(tracker: QualityTracker) -> None:
    rng = np.random.default_rng(64)
    actual = rng.uniform(0.0, 100.0, 40)
    actual[::9] = 0.0
    for p, a in zip(rng.uniform(0.0, 100.0, 40).tolist(), actual.tolist()):
        tracker.update(p, a)


def _walk_slo(slo: SLOTracker) -> None:
    rng = np.random.default_rng(65)
    for lat, ape in zip(rng.uniform(0.0, 0.08, 30).tolist(),
                        rng.uniform(0.0, 40.0, 30).tolist()):
        slo.update(latency_s=lat, ape=ape)


def _walk_monitor(monitor: ForecastMonitor) -> None:
    """Accurate forecasts, a report, then a 1.6x over-forecast regime."""
    rng = np.random.default_rng(66)
    actual = rng.poisson(100, 60).astype(np.float64)
    predicted = actual * rng.normal(1.0, 0.05, 60)
    predicted[40:] *= 1.6
    for i, (p, a) in enumerate(zip(predicted.tolist(), actual.tolist())):
        if i == 30:
            monitor.report()
        monitor.observe(p, a)


def _walk_controller(steps: int, jump: int, seed: int):
    """Controller walk: noisy persistence forecasts of Poisson load with
    NaN outages, and a load that doubles at ``jump`` while the forecast
    keeps lagging it."""
    def walk(controller: HybridController) -> None:
        rng = np.random.default_rng(seed)
        arrivals = rng.poisson(80, steps).astype(np.float64)
        arrivals[jump:] *= 2.0
        forecasts = np.concatenate(([80.0], arrivals[:-1])) + rng.normal(0, 6, steps)
        forecasts[jump:] *= 0.7
        arrivals[rng.integers(0, jump, 4)] = np.nan
        forecasts[rng.integers(0, jump, 3)] = np.nan
        for i in range(steps):
            controller.step(forecasts[i], arrivals[: i + 1])
    return walk


#: name -> (fresh instance factory, seeded walk).  The state golden test
#: and the state completeness test both run these.
STATE_CASES = {
    "breaker": (
        lambda: CircuitBreaker(window=6, min_calls=3, cooldown=3, probes=2),
        _walk_breaker,
    ),
    "guard": (
        lambda: GuardedPredictor(
            LastValuePredictor(), fallbacks=default_fallbacks(4),
            breaker=CircuitBreaker(window=4, min_calls=2, cooldown=2, probes=1),
        ),
        _walk_guard,
    ),
    "guard_adaptive": (
        lambda: GuardedPredictor(_adaptive()), _walk_guard_adaptive,
    ),
    "cusum": (
        lambda: CusumDetector(threshold=6.0, warmup=12),
        _walk_errors(43, 10.0, 30.0, tail=(2.0, 3.0)),
    ),
    "page_hinkley": (
        lambda: PageHinkleyDetector(threshold=20.0, delta=1.0, min_samples=5),
        _walk_errors(44, 10.0, 20.0),
    ),
    "quality": (lambda: QualityTracker(window=16), _walk_quality),
    "slo": (
        lambda: SLOTracker(
            latency_slo_ms=50.0, accuracy_slo_mape=20.0, window=12,
            min_intervals=5,
        ),
        _walk_slo,
    ),
    "monitor": (
        lambda: ForecastMonitor(
            quality=QualityTracker(window=16),
            detectors=[
                CusumDetector(threshold=6.0, warmup=10),
                PageHinkleyDetector(threshold=20.0, delta=1.0, min_samples=5),
            ],
            slo=SLOTracker(accuracy_slo_mape=25.0, window=8, min_intervals=5),
        ),
        _walk_monitor,
    ),
    "monitor_no_slo": (lambda: ForecastMonitor(detectors=[]), _walk_monitor),
    "controller_page_hinkley": (
        lambda: HybridController(
            ControllerConfig(
                burst_streak=None, burst_clear=5, min_vms=2, max_step_up=30,
                scale_down_cooldown=3,
            ),
            drift_detector=PageHinkleyDetector(
                threshold=30.0, delta=1.0, min_samples=5,
            ),
        ),
        _walk_controller(120, 116, 67),
    ),
    "controller": (lambda: HybridController(), _walk_controller(120, 60, 68)),
    "adaptive": (_adaptive, _walk_adaptive),
}


def walked(name: str):
    """A fresh instance of ``STATE_CASES[name]`` after its walk."""
    make, walk = STATE_CASES[name]
    obj = make()
    walk(obj)
    return obj


def record_state() -> dict:
    reset_metrics()
    return {
        "numpy": np.__version__,
        "bit_generator": type(np.random.default_rng().bit_generator).__name__,
        "cases": [
            {"name": name, "state": json.dumps(walked(name).state_dict())}
            for name in STATE_CASES
        ],
    }


def write_cases(path: Path, fixture: dict) -> None:
    """Write ``fixture`` as JSON with one line per entry of its
    ``cases`` list, which keeps long input and hex lists compact."""
    cases = fixture.pop("cases")
    head = json.dumps(fixture)[:-1]
    body = ",\n".join(json.dumps(c) for c in cases)
    path.write_text(f'{head}, "cases": [\n{body}\n]}}\n')


def main(argv: list[str]) -> int:
    known = {"pipeline", "cloudsim", "training", "controller", "state"}
    sections = set(argv) or known
    unknown = sections - known
    if unknown:
        logger.error("unknown section(s): %s", ", ".join(sorted(unknown)))
        return 2
    data_dir = Path(__file__).resolve().parent.parent / "tests" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    if "pipeline" in sections:
        # scripts/ is sys.path[0] when this file runs as a script.
        from make_bo_fixture import environment

        series = fixture_series()
        fixture = {
            "provenance": {
                "recorded_by": "scripts/make_pipeline_fixtures.py pipeline",
                **environment(),
            },
            "prepare_data": record_prepare_data(series),
            "forward_inference": record_forward_inference(),
            "fit": record_fit_predictions(series),
        }
        out = data_dir / "equivalence_pipeline.json"
        out.write_text(json.dumps(fixture, indent=2) + "\n")
        logger.info("pipeline fixture written to %s", out)
    if "cloudsim" in sections:
        out = data_dir / "cloudsim_golden.json"
        write_cases(out, record_cloudsim())
        logger.info("simulator fixture written to %s", out)
    if "training" in sections:
        out = data_dir / "training_golden.json"
        write_cases(out, record_training())
        logger.info("training fixture written to %s", out)
    if "controller" in sections:
        out = data_dir / "controller_golden.json"
        write_cases(out, record_controller())
        logger.info("controller fixture written to %s", out)
    if "state" in sections:
        out = data_dir / "state_golden.json"
        write_cases(out, record_state())
        logger.info("state fixture written to %s", out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
