"""Guarded serving: zero overhead, fallback chain, breaker, corrupt models."""

import numpy as np
import pytest

from repro.baselines import LastValuePredictor, SeasonalNaivePredictor, walk_forward
from repro.baselines.base import Predictor
from repro.core import LSTMHyperparameters, LoadDynamicsPredictor, MinMaxScaler
from repro.core.predictor import NaiveLastValueModel
from repro.resilience import SimulatedCrash, faults
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CorruptModelError,
    GuardedPredictor,
    default_fallbacks,
    daily_period,
    serve_and_simulate,
)


def series():
    x = np.arange(240.0)
    return np.abs(np.sin(x / 12)) * 400 + 100 + 10 * np.cos(x / 5)


def naive_predictor(s):
    return LoadDynamicsPredictor(
        model=NaiveLastValueModel(),
        scaler=MinMaxScaler().fit(s),
        hyperparameters=LSTMHyperparameters(1, 1, 1, 1),
        family="naive",
    )


class _ScriptedPredictor(Predictor):
    """Returns scripted values/exceptions in order, then repeats the last."""

    name = "scripted"

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def predict_next(self, history):
        out = self.outcomes[min(self.calls, len(self.outcomes) - 1)]
        self.calls += 1
        if isinstance(out, BaseException):
            raise out
        return out


class TestZeroOverhead:
    def test_guarded_predictions_bit_for_bit_identical(self):
        s = series()
        raw = walk_forward(naive_predictor(s), s, 200, 240)
        guarded = GuardedPredictor(naive_predictor(s))
        safe = walk_forward(guarded, s, 200, 240)
        # Exact equality, not approx: the guard must not touch a healthy
        # model's in-range forecasts.
        assert (raw == safe).all()
        assert guarded.served_by == {"primary": 40}

    def test_clean_run_records_no_faults(self):
        s = series()
        guarded = GuardedPredictor(naive_predictor(s))
        walk_forward(guarded, s, 200, 240)
        assert guarded.breaker.state == CLOSED
        assert guarded.breaker.transitions == []


class TestValidationAndFallback:
    def test_nonfinite_forecast_goes_to_fallback(self):
        guarded = GuardedPredictor(_ScriptedPredictor(float("nan")))
        h = np.array([5.0, 6.0, 7.0])
        assert guarded.predict_next(h) == 7.0
        assert guarded.served_by == {"last-value": 1}

    def test_negative_forecast_clamped_to_zero(self):
        guarded = GuardedPredictor(_ScriptedPredictor(-25.0))
        assert guarded.predict_next(np.array([5.0, 6.0])) == 0.0
        assert guarded.served_by == {"primary": 1}

    def test_explosion_clamped_to_rolling_bound(self):
        guarded = GuardedPredictor(_ScriptedPredictor(1e12), guard_factor=10.0)
        h = np.array([50.0, 80.0, 60.0])
        assert guarded.predict_next(h) == 800.0  # 10 x rolling max

    def test_fallback_chain_order(self):
        fallbacks = [SeasonalNaivePredictor(4), LastValuePredictor()]
        guarded = GuardedPredictor(_ScriptedPredictor(float("inf")), fallbacks=fallbacks)
        h = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        # Seasonal naive (period 4) answers first: h[-4] == 5.
        assert guarded.predict_next(h) == 5.0
        assert guarded.served_by == {"seasonal-naive-4": 1}

    def test_primary_exception_goes_to_fallback(self):
        guarded = GuardedPredictor(_ScriptedPredictor(RuntimeError("sick")))
        assert guarded.predict_next(np.array([3.0])) == 3.0
        assert guarded.served_by == {"last-value": 1}

    def test_simulated_crash_propagates(self):
        guarded = GuardedPredictor(_ScriptedPredictor(SimulatedCrash("kill")))
        with pytest.raises(SimulatedCrash):
            guarded.predict_next(np.array([1.0]))

    def test_all_stages_dry_serves_zero(self):
        guarded = GuardedPredictor(None, fallbacks=[])
        assert guarded.predict_next(np.array([np.nan])) == 0.0
        assert guarded.served_by == {"zero": 1}

    def test_output_always_finite_under_nan_faults(self):
        s = series()
        guarded = GuardedPredictor(naive_predictor(s), fallbacks=default_fallbacks(24))
        with faults.injected("nan@serve.predict:*"):
            preds = walk_forward(guarded, s, 200, 240)
        assert np.all(np.isfinite(preds)) and np.all(preds >= 0)
        assert guarded.served_by.get("primary", 0) == 0


class TestBreaker:
    def test_opens_under_sustained_failure_and_sheds(self):
        breaker = CircuitBreaker(min_calls=4, window=8, cooldown=5, probes=2)
        guarded = GuardedPredictor(
            _ScriptedPredictor(RuntimeError("down")), breaker=breaker
        )
        h = np.array([10.0, 11.0])
        for _ in range(4):
            guarded.predict_next(h)
        assert breaker.state == OPEN
        calls_when_open = guarded.primary.calls
        guarded.predict_next(h)  # shed: primary not probed
        assert guarded.primary.calls == calls_when_open

    def test_half_open_probe_recovers(self):
        breaker = CircuitBreaker(min_calls=2, window=4, cooldown=2, probes=2)
        primary = _ScriptedPredictor(RuntimeError("a"), RuntimeError("b"), 42.0)
        guarded = GuardedPredictor(primary, breaker=breaker)
        h = np.array([40.0, 41.0])
        guarded.predict_next(h)
        guarded.predict_next(h)
        assert breaker.state == OPEN
        # Cool-down burns on shed calls, then a probe is admitted.
        outs = [guarded.predict_next(h) for _ in range(4)]
        assert breaker.state in (HALF_OPEN, CLOSED)
        assert 42.0 in outs
        assert [t[1] for t in breaker.transitions[:2]] == [OPEN, HALF_OPEN]

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(min_calls=2, window=4, cooldown=1, probes=2)
        guarded = GuardedPredictor(
            _ScriptedPredictor(RuntimeError("down")), breaker=breaker
        )
        h = np.array([1.0])
        for _ in range(5):
            guarded.predict_next(h)
        assert ("half_open", "open", "probe_failed") in breaker.transitions


    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_counted_successes_equal_single_ones(self, n):
        """``record_success(n)`` lands where ``n`` single calls do, from
        every state, including a half-open probe run that closes."""
        def fresh():
            breaker = CircuitBreaker(min_calls=2, window=4, cooldown=1, probes=3)
            breaker.record_failure()
            breaker.record_failure()
            return breaker

        for steps in (0, 1):  # open, then half-open after one allow()
            counted, single = fresh(), fresh()
            for b in (counted, single):
                for _ in range(steps):
                    b.allow()
            counted.record_success(n)
            for _ in range(n):
                single.record_success()
            assert counted.state_dict() == single.state_dict()


class TestBlockPass:
    @staticmethod
    def reference_bound(h, window, factor):
        """The guard's ceiling as ``predict_next`` defines it."""
        tail = h[-window:]
        finite = tail[np.isfinite(tail)]
        if finite.size == 0:
            return float("inf")
        return factor * max(float(finite.max()), 0.0)

    @pytest.mark.parametrize("window", [1, 3, 17, 256])
    def test_block_bounds_match_each_history(self, window):
        rng = np.random.default_rng(window)
        target = rng.normal(50.0, 40.0, 400)
        target[rng.integers(0, 400, 60)] = np.nan
        target[[7, 99]] = np.inf
        target[[8, 150]] = -np.inf
        target[200:230] = -3.0
        target[300:320] = -0.0
        guard = GuardedPredictor(None, guard_factor=2.5)
        for first in (0, 1, 5, 100, 255, 256, 390):
            got = guard._bounds(target, first, window)
            want = [
                self.reference_bound(target[:e], window, 2.5)
                for e in range(first, 401)
            ]
            assert [b.hex() for b in got] == [b.hex() for b in want]

    def test_serve_block_books_what_predict_next_books(self):
        s = series()
        raws = np.array([120.0, 0.0, 333.5])
        block = GuardedPredictor(naive_predictor(s))
        single = GuardedPredictor(naive_predictor(s))
        assert block.serve_block(raws, s, 200, 4096) is None
        served = [single.predict_next(s[: 200 + j], raw=r)
                  for j, r in enumerate(raws.tolist())]
        assert served == raws.tolist()
        assert block.state_dict() == single.state_dict()

    @pytest.mark.parametrize("raw, reason", [
        (float("nan"), "nonfinite"), (-1.0, "negative"), (1e9, "above_bound"),
    ])
    def test_serve_block_declines_and_books_nothing(self, raw, reason):
        s = series()
        guard = GuardedPredictor(naive_predictor(s))
        before = guard.state_dict()
        assert guard.serve_block(np.array([100.0, raw]), s, 200, 4096) == reason
        assert guard.state_dict() == before

    def test_serve_block_declines_under_an_injector(self):
        guard = GuardedPredictor(naive_predictor(series()))
        with faults.injected("boom@never.fires:1"):
            assert guard.serve_block(
                np.array([1.0]), series(), 200, 4096) == "faults"
        assert GuardedPredictor(None).serve_block(
            np.array([1.0]), series(), 200, 4096) == "no_primary"


class TestCorruptModel:
    def test_truncated_manifest_raises_typed_error(self, tmp_path):
        s = series()
        directory = naive_predictor(s).save(tmp_path / "model")
        manifest = directory / "predictor.json"
        manifest.write_text(manifest.read_text()[:25])
        with pytest.raises(CorruptModelError) as exc:
            GuardedPredictor.load(directory)
        assert exc.value.directory == str(directory)

    def test_corrupt_weight_file_raises_typed_error(self, tmp_path):
        s = series()
        directory = naive_predictor(s).save(tmp_path / "model")
        manifest = directory / "predictor.json"
        # Point the manifest at the npz family and plant garbage weights.
        manifest.write_text(manifest.read_text().replace('"naive"', '"lstm"'))
        (directory / "model.npz").write_bytes(b"not a zip archive")
        with pytest.raises(CorruptModelError):
            GuardedPredictor.load(directory)

    def test_injected_corruption_raises_typed_error(self, tmp_path):
        directory = naive_predictor(series()).save(tmp_path / "model")
        with faults.injected("corrupt@model.load:*"):
            with pytest.raises(CorruptModelError):
                GuardedPredictor.load(directory)

    def test_on_corrupt_fallback_still_serves(self, tmp_path):
        s = series()
        directory = naive_predictor(s).save(tmp_path / "model")
        (directory / "predictor.json").write_text("{")
        guarded = GuardedPredictor.load(directory, on_corrupt="fallback")
        assert guarded.primary is None
        p = guarded.predict_next(s)
        assert np.isfinite(p) and p >= 0

    def test_intact_directory_loads_primary(self, tmp_path):
        s = series()
        directory = naive_predictor(s).save(tmp_path / "model")
        guarded = GuardedPredictor.load(directory)
        assert guarded.primary is not None
        assert guarded.predict_next(s) == pytest.approx(s[-1])


class TestOnlineLoop:
    def test_daily_period(self):
        assert daily_period(10) == 144
        assert daily_period(30) == 48
        assert daily_period(0) is None
        assert daily_period(1441) is None

    def test_serve_and_simulate_reports(self):
        s = series()
        guarded = GuardedPredictor(naive_predictor(s))
        report = serve_and_simulate(guarded, s, 200)
        assert report.result.n_intervals == 40
        assert report.schedule.shape == (40,)
        assert report.served_by == {"primary": 40}
        assert report.n_fallback_serves == 0
        assert "serving.predictions" in report.serving_counters

    def test_simulation_survives_boom_faults(self):
        s = series()
        guarded = GuardedPredictor(naive_predictor(s), fallbacks=default_fallbacks(24))
        with faults.injected("boom@serve.predict:*"):
            report = serve_and_simulate(guarded, s, 200)
        assert np.all(np.isfinite(report.schedule))
        assert report.n_fallback_serves == 40
        assert any(t[1] == OPEN for t in report.breaker_transitions)
