#!/usr/bin/env python
"""CI perf-smoke stage: fast path stays exact, benchmarks stay runnable.

Seven checks, all cheap enough for every CI run:

1. **Fast-path parity** — the cache-free inference kernels
   (``forward_inference``) must be bitwise-identical to the cached
   training forward for LSTM and GRU at deployment-like shapes, and
   batched search must reproduce serial trial records exactly.
2. **Stream batch parity** — the streaming server's chunk-batched
   forecasts must stay inside the declared tolerance class against the
   same model served one ``predict_next`` per interval: identical serve
   accounting, forecasts within rtol 1e-12, decisions within one VM on
   at most 1% of intervals.
3. **Controller parity** — the recorded default-config controller walks
   in ``tests/data/controller_golden.json``, replayed through
   ``PredictivePolicy`` with a ``HybridController`` (the server's direct
   entry), must give the identical
   schedule bytes and ``decided_by`` counts.
4. **Fit-path parity** — one seeded ``LoadDynamics.fit`` of the
   perfbench model shape over a loss x optimizer space (4 trials, 2
   epochs), run twice in this process: as shipped, and with the oracle
   of ``tests/fit_path_oracle.py`` swapped in (the GP and EI/PI through
   scipy's wrappers, ``np.clip``, and a re-predicted validation
   forecast).  ``trial_values()`` bytes, every trial config, the
   selected hyperparameters, the selected model's weights and the bytes
   of every acquisition score the search computed must be identical.
5. **Replay parity** — ``CloudSimulator.run`` on a perfbench
   ``search``-sized schedule (16 intervals of ~860k jobs), once serial
   (``REPRO_MAX_WORKERS=1``) and once cut into spans on threads (at
   least two, even on a one-core host), must give identical turnaround,
   makespan and ``vm_seconds`` bytes.
6. **Quick benchmarks** — run the latency benches with
   ``REPRO_BENCH_QUICK=1`` so a broken benchmark (import error, shape
   drift, harness change) fails CI instead of the next perf PR.
7. **Artifact schema** — ``BENCH_inference.json`` / ``BENCH_training.json``
   must parse and carry the gauges perf PRs diff against.

Exit status: 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT))  # for the tests' fit-path oracle

import numpy as np

from repro.obs.logging import configure_logging, get_logger

logger = get_logger("perf_smoke")

#: Gauges every artifact must carry (the perf-trajectory contract).
REQUIRED_GAUGES = {
    "BENCH_inference.json": [
        "bench.inference.predict_next_mean_ms",
        "bench.inference.predict_series_per_interval_ms",
        "bench.inference.lstm_forward_64x48_mean_ms",
    ],
    "BENCH_training.json": [
        "bench.training.train_epoch_128x24_mean_ms",
        "bench.training.full_fit_serial_s",
    ],
}


def _toy_objective(c: dict) -> float:
    # Module level, not a lambda: worker processes receive it by pickling.
    return (c["a"] - 3) ** 2 + (c["b"] - 0.4) ** 2


def check_fastpath_parity() -> None:
    from repro.bayesopt import IntParam, FloatParam, RandomSearch, SearchSpace
    from repro.nn.gru import GRULayer
    from repro.nn.lstm import LSTMLayer

    rng = np.random.default_rng(0)
    for layer_cls in (LSTMLayer, GRULayer):
        for B, T, D, H in [(150, 14, 1, 9), (64, 48, 1, 32), (8, 5, 3, 4)]:
            layer = layer_cls(D, H, rng)
            x = rng.standard_normal((B, T, D))
            cached, _ = layer.forward(x)
            fast = layer.forward_inference(x)
            if not np.array_equal(cached, fast):
                raise AssertionError(
                    f"{layer_cls.__name__} fast path diverged at "
                    f"B={B} T={T} D={D} H={H}"
                )
            # Re-run on the warmed scratch: reuse must stay exact too.
            if not np.array_equal(cached, layer.forward_inference(x)):
                raise AssertionError(
                    f"{layer_cls.__name__} scratch reuse diverged"
                )
    logger.info("fast-path parity: OK")

    space = SearchSpace([IntParam("a", 1, 10), FloatParam("b", 0.0, 1.0)])
    serial = RandomSearch(space, seed=3)
    serial.run(_toy_objective, 6)
    space2 = SearchSpace([IntParam("a", 1, 10), FloatParam("b", 0.0, 1.0)])
    parallel = RandomSearch(space2, seed=3)
    parallel.run(_toy_objective, 6, n_workers=2)
    if [(r.config, r.value) for r in serial.history] != [
        (r.config, r.value) for r in parallel.history
    ]:
        raise AssertionError("parallel random search diverged from serial")
    logger.info("parallel search determinism: OK")


def check_stream_batch_parity() -> None:
    from repro.autoscale.controller import HybridController
    from repro.baselines.base import Predictor
    from repro.bayesopt import IntParam, SearchSpace
    from repro.core import FrameworkSettings, LoadDynamics
    from repro.obs.metrics import counter, reset_metrics
    from repro.serving import (
        GuardedPredictor,
        StreamConfig,
        StreamingServer,
        chunk_stream,
        default_fallbacks,
    )

    class SequentialOnly(Predictor):
        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name
            self.min_history = inner.min_history

        def predict_next(self, history):
            return self.inner.predict_next(history)

    class Recording(GuardedPredictor):
        def predict_next(self, history, raw=None):
            value = super().predict_next(history, raw=raw)
            self.forecasts.append(value)
            return value

        def serve_block(self, raws, target, first, history_window):
            reason = super().serve_block(raws, target, first, history_window)
            if reason is None:
                self.forecasts.extend(raws.tolist())
            return reason

    rng = np.random.default_rng(0)
    t = np.arange(800, dtype=np.float64)
    trace = np.clip(
        100 + 30 * np.sin(2 * np.pi * t / 48) + rng.normal(0, 5, t.size),
        0, None,
    )
    space = SearchSpace([
        IntParam("history_len", 12, 12),
        IntParam("cell_size", 8, 8),
        IntParam("num_layers", 2, 2),
        IntParam("batch_size", 32, 32),
    ])
    model, _ = LoadDynamics(
        space=space, settings=FrameworkSettings.tiny(max_iters=2, epochs=3),
    ).fit(trace[:400])

    def serve(primary, controller: bool):
        reset_metrics()
        guard = Recording(primary, fallbacks=default_fallbacks(48))
        guard.forecasts = []
        cfg = StreamConfig(chunk_size=16, size_jitter=5, seed=3)
        server = StreamingServer(
            guard, trace[:400], config=cfg,
            controller=HybridController() if controller else None,
        )
        report = server.run(chunk_stream(trace[400:], config=cfg))
        return report, np.array(guard.forecasts)

    for controller in (False, True):
        rep_b, fc_b = serve(model, controller)
        blocked = counter("stream.block_intervals").value
        if blocked != rep_b.stream["served_intervals"]:
            raise AssertionError(
                f"batched stream served {blocked:.0f} of "
                f"{rep_b.stream['served_intervals']} intervals by block"
            )
        rep_s, fc_s = serve(SequentialOnly(model), controller)
        for field in ("served_by", "breaker_transitions",
                      "serving_counters", "stream"):
            if getattr(rep_b, field) != getattr(rep_s, field):
                raise AssertionError(
                    f"batched stream {field} differs from per-interval"
                )
        np.testing.assert_allclose(fc_b, fc_s, rtol=1e-12, atol=0.0)
        off = np.abs(rep_b.schedule - rep_s.schedule)
        if off.max() > 1.0 or np.count_nonzero(off) > 0.01 * off.size:
            raise AssertionError(
                f"batched stream decisions off by up to {off.max():.0f} VMs "
                f"on {np.count_nonzero(off)} of {off.size} intervals"
            )
    logger.info("stream batch parity: OK")


def check_controller_parity() -> None:
    from collections import Counter

    from repro.autoscale import HybridController, PredictivePolicy
    from repro.baselines.base import Predictor

    class Replay(Predictor):
        """Forecasts ``forecasts[i]`` after seeing ``i + 1`` arrivals."""

        name = "replay"

        def __init__(self, forecasts):
            self.forecasts = forecasts

        def predict_next(self, history):
            return float(self.forecasts[len(history) - 1])

    def unhex(s: str) -> np.ndarray:
        return np.frombuffer(bytes.fromhex(s), dtype="<f8").astype(np.float64)

    golden = json.loads(
        (ROOT / "tests" / "data" / "controller_golden.json").read_text()
    )
    cases = [c for c in golden["cases"] if c["config"] == "default"]
    if not cases:
        raise AssertionError("controller golden has no default-config case")
    for case in cases:
        arrivals = unhex(case["arrivals"])
        policy = PredictivePolicy(
            Replay(unhex(case["forecasts"])), controller=HybridController()
        )
        # From start 1, interval j sees arrivals[:j + 1], as the recorded
        # walk did; the appended value is never revealed to a decision.
        schedule = policy.schedule(np.append(arrivals, 0.0), 1)
        want = np.asarray(case["vms"], dtype=np.float64)
        if schedule.tobytes() != want.tobytes():
            raise AssertionError(f"{case['name']}: schedule bytes diverged")
        counts = dict(Counter(case["decided_by"]))
        if policy.controller.decided_by != counts:
            raise AssertionError(
                f"{case['name']}: decided_by {policy.controller.decided_by} "
                f"!= recorded {counts}"
            )
    logger.info("controller parity: OK (%d recorded walks)", len(cases))


def check_fit_path_parity() -> None:
    import hashlib

    import repro.bayesopt.optimizer as optimizer
    from repro.bayesopt import CategoricalParam, IntParam, SearchSpace
    from repro.core import FrameworkSettings, LoadDynamics
    from repro.traces.synthetic import wikipedia_trace
    from tests import fit_path_oracle

    # perfbench's pinned model shape with its loss x optimizer choices.
    space = SearchSpace([
        IntParam("history_len", 24, 24),
        IntParam("cell_size", 8, 8),
        IntParam("num_layers", 2, 2),
        IntParam("batch_size", 32, 32),
        CategoricalParam("loss", ("mse", "mae", "huber")),
        CategoricalParam("optimizer", ("adam", "rmsprop", "sgd")),
    ])
    trace = wikipedia_trace(days=3, seed=5).at_interval(5)[:576]

    def fit():
        # Every GP posterior and EI value the search computes passes
        # through ``score_candidates``: a last-bit change there shows in
        # this digest even when it does not change a decoded config.
        scores = hashlib.sha256()
        score_candidates = optimizer.score_candidates

        def recorded(*args, **kwargs):
            out = score_candidates(*args, **kwargs)
            scores.update(np.ascontiguousarray(out).tobytes())
            return out

        settings = FrameworkSettings(
            max_iters=4, n_initial=2, epochs=2, seed=0
        )
        optimizer.score_candidates = recorded
        try:
            predictor, report = LoadDynamics(
                space=space, settings=settings
            ).fit(np.asarray(trace, dtype=np.float64))
        finally:
            optimizer.score_candidates = score_candidates
        weights = b"".join(p.tobytes() for p in predictor.model.params)
        return (report.trial_values().tobytes(),
                [t.config for t in report.trials],
                report.best_hyperparameters, weights, scores.hexdigest())

    shipped = fit()
    with fit_path_oracle.installed():
        old = fit()
    for name, a, b in zip(("trial_values() bytes", "trial configs",
                           "selected hyperparameters", "selected weights",
                           "acquisition scores"),
                          shipped, old, strict=True):
        if a != b:
            raise AssertionError(f"fit-path parity: {name} differ from the oracle")
    if len(shipped[1]) != 4:
        raise AssertionError(f"fit-path parity: {len(shipped[1])} trials, not 4")
    logger.info("fit-path parity: OK (4 trials, identical to the oracle)")


def check_replay_parity() -> None:
    from repro.autoscale import cloudsim
    from repro.obs.metrics import gauge
    from repro.parallel import MAX_WORKERS_ENV, effective_workers

    rng = np.random.default_rng(0)
    arrivals = np.round(rng.uniform(800_000, 920_000, 16))
    provisioned = np.round(arrivals * rng.uniform(0.9, 1.1, 16))
    sim = cloudsim.CloudSimulator(seed=3)

    def replay():
        res = sim.run(arrivals, provisioned)
        out = (res.turnaround_seconds.tobytes(), res.makespan_seconds.tobytes(),
               float(res.vm_seconds).hex())
        return out, int(gauge("autoscale.replay_spans").value)

    with mock.patch.dict(os.environ, {MAX_WORKERS_ENV: "1"}):
        serial, serial_spans = replay()
    with mock.patch.object(cloudsim, "effective_workers",
                           lambda: max(2, effective_workers())):
        split, spans = replay()
    leaf_jobs = int(gauge("autoscale.replay_leaf_jobs").value)
    if serial_spans != 1 or spans < 2:
        raise AssertionError(
            f"replay parity: {serial_spans} serial and {spans} split spans"
        )
    if split != serial:
        raise AssertionError("replay parity: split replay differs from serial")
    logger.info("replay parity: OK (%d spans, %d-job leaves)", spans, leaf_jobs)


def run_quick_benchmarks(artifact_dir: Path) -> None:
    env = dict(os.environ)
    env["REPRO_BENCH_QUICK"] = "1"
    env["REPRO_BENCH_ARTIFACT_DIR"] = str(artifact_dir)
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q",
        "benchmarks/bench_inference_latency.py",
        "benchmarks/bench_training_latency.py",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise AssertionError("quick benchmarks failed")
    logger.info("quick benchmarks: OK")


def check_artifacts(artifact_dir: Path) -> None:
    """Validate the freshly-emitted artifacts and the committed ones."""
    for where in (artifact_dir, ROOT):
        for name, gauges in REQUIRED_GAUGES.items():
            path = where / name
            if not path.exists():
                raise AssertionError(f"{path} missing")
            data = json.loads(path.read_text())
            if data.get("schema") != 1:
                raise AssertionError(
                    f"{path}: unexpected schema {data.get('schema')!r}"
                )
            metrics = data.get("metrics", {})
            for gauge in gauges:
                snap = metrics.get(gauge)
                if snap is None:
                    raise AssertionError(f"{path}: missing metric {gauge}")
                if snap.get("kind") != "gauge" or not np.isfinite(
                    snap.get("value", np.nan)
                ):
                    raise AssertionError(f"{path}: bad snapshot for {gauge}: {snap}")
    logger.info("artifact schemas: OK")


def main() -> int:
    import tempfile

    configure_logging("INFO")
    check_fastpath_parity()
    check_stream_batch_parity()
    check_controller_parity()
    check_fit_path_parity()
    check_replay_parity()
    with tempfile.TemporaryDirectory() as tmp:
        run_quick_benchmarks(Path(tmp))
        check_artifacts(Path(tmp))
    logger.info("perf smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
