"""Property and unit tests for the hybrid autoscaling controller.

The safety rails are only rails if they hold under *arbitrary* forecast
and arrival streams — including NaN outages and adversarial spikes — so
the invariants are hypothesis properties over random streams:

* every decision within ``[min_vms, max_vms]``;
* rate limits and the scale-down cooldown never violated;
* anti-windup bounds the error integral;
* burst latches and clears deterministically;
* zero-gain passthrough reproduces ``PredictivePolicy`` bit-for-bit;
* no finite or infinite input makes ``step`` raise;
* the sorted-window headroom quantile and the scalar reactive peak
  match the ``np.quantile``/``np.isfinite`` code they replaced, byte
  for byte (the old code is kept below as the oracle).
"""

from __future__ import annotations

import json
import math
import numbers
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autoscale import ControllerConfig, HybridController, PredictivePolicy
from repro.baselines.naive import LastValuePredictor, SeasonalNaivePredictor
from repro.obs.monitor import PageHinkleyDetector
from repro.resilience import faults

# Streams mixing normal values, spikes, and NaN outages — the adversarial
# envelope every rail must hold under.
stream_values = st.one_of(
    st.floats(0.0, 200.0),
    st.floats(1e4, 1e6),
    st.just(float("nan")),
)


# Every float, including the extremes whose differences overflow.
any_float = st.floats(allow_nan=True, allow_infinity=True)


def _reference_positive_error_quantile(self, q: float) -> float:
    """The list-comprehension + ``np.quantile`` original, verbatim."""
    pos = [e for e in self._errors if e > 0.0]
    if not pos:
        return 0.0
    return float(np.quantile(np.asarray(pos, dtype=np.float64), q))


def _reference_reactive_target(self, history: np.ndarray) -> float | None:
    """The ``np.isfinite`` + fancy-indexing original, verbatim."""
    cfg = self.config
    tail = history[-cfg.reactive_window :] if history.size else history
    finite = tail[np.isfinite(tail)]
    if finite.size == 0:
        return None
    peak = float(finite.max())
    if cfg.reactive_headroom != 1.0:
        peak *= cfg.reactive_headroom
    return peak


def _bits(x: float | None) -> bytes | None:
    return None if x is None else struct.pack("<d", x)


def _walk(controller, forecasts, arrivals):
    """Drive one decision per interval, returning the Decision list."""
    decisions = []
    for i, f in enumerate(forecasts):
        decisions.append(controller.step(f, np.asarray(arrivals[: i + 1])))
    return decisions


class TestRails:
    @given(
        forecasts=arrays(np.float64, 40, elements=stream_values),
        arrivals=arrays(np.float64, 40, elements=stream_values),
        min_vms=st.integers(0, 5),
        span=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_always_hold(self, forecasts, arrivals, min_vms, span):
        cfg = ControllerConfig(min_vms=min_vms, max_vms=min_vms + span)
        decisions = _walk(HybridController(cfg), forecasts, arrivals)
        for d in decisions:
            assert min_vms <= d.vms <= min_vms + span

    @given(
        forecasts=arrays(np.float64, 40, elements=stream_values),
        arrivals=arrays(np.float64, 40, elements=stream_values),
        up=st.integers(0, 10),
        down=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_limits_never_violated(self, forecasts, arrivals, up, down):
        cfg = ControllerConfig(max_step_up=up, max_step_down=down)
        decisions = _walk(HybridController(cfg), forecasts, arrivals)
        for prev, cur in zip(decisions, decisions[1:], strict=False):
            assert cur.vms - prev.vms <= up
            assert prev.vms - cur.vms <= down

    @given(
        forecasts=arrays(np.float64, 40, elements=stream_values),
        arrivals=arrays(np.float64, 40, elements=stream_values),
        cooldown=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_cooldown_blocks_scale_down(self, forecasts, arrivals, cooldown):
        """No scale-down within ``cooldown`` decisions of a scale-up."""
        cfg = ControllerConfig(scale_down_cooldown=cooldown)
        decisions = _walk(HybridController(cfg), forecasts, arrivals)
        vms = [d.vms for d in decisions]
        # A scale-down at step i implies no scale-up in the preceding
        # `cooldown` steps.
        for i in range(1, len(vms)):
            if vms[i] < vms[i - 1]:
                for k in range(max(i - cooldown, 1), i):
                    assert vms[k] <= vms[k - 1], (
                        f"scale-down at {i} inside the cooldown of the "
                        f"scale-up at {k}: {vms}"
                    )

    @given(
        forecasts=arrays(np.float64, 60, elements=stream_values),
        arrivals=arrays(np.float64, 60, elements=stream_values),
        limit=st.floats(0.0, 500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_antiwindup_bounds_integral(self, forecasts, arrivals, limit):
        cfg = ControllerConfig(integral_limit=limit)
        controller = HybridController(cfg)
        for i, f in enumerate(forecasts):
            controller.step(f, np.asarray(arrivals[: i + 1]))
            assert abs(controller.integral) <= limit + 1e-9

    def test_rail_provenance_recorded(self):
        cfg = ControllerConfig(max_vms=5, max_step_up=2, kp=0.0, ki=0.0, kd=0.0,
                               headroom_quantile=None, burst_streak=None)
        controller = HybridController(cfg)
        d1 = controller.step(100.0, np.array([1.0]))
        assert d1.vms == 5 and "max_vms" in d1.rails
        d2 = controller.step(0.0, np.array([1.0, 1.0]))
        assert d2.vms == 0 and d2.rails == ()
        d3 = controller.step(100.0, np.array([1.0, 1.0, 1.0]))
        assert d3.vms == 2 and "rate_up" in d3.rails
        assert controller.rail_hits == {"max_vms": 1, "rate_up": 1}


class TestRailsOffFastPath:
    """Only a config with every rail off skips ``_apply_rails``; each rail
    enabled alone still clips a walk that triggers it, as before."""

    PASSTHROUGH = dict(kp=0.0, ki=0.0, kd=0.0, headroom_quantile=None,
                       burst_streak=None)
    FORECASTS = [2.0, 10.0, 3.0, 12.0, 1.0, 1.0, 20.0, 0.5, 6.0]
    # Decisions, the steps the rail clipped, and the rail hits the walk
    # gave before the fast path existed.
    CLIPPED = {
        "min_vms": (
            dict(min_vms=4),
            [4, 10, 4, 12, 4, 4, 20, 4, 6],
            {0, 2, 4, 5, 7},
            {"min_vms": 5},
        ),
        "max_vms": (
            dict(max_vms=8),
            [2, 8, 3, 8, 1, 1, 8, 1, 6],
            {1, 3, 6},
            {"max_vms": 3},
        ),
        "rate_up": (
            dict(max_step_up=3),
            [2, 5, 3, 6, 1, 1, 4, 1, 4],
            {1, 3, 6, 8},
            {"rate_up": 4},
        ),
        "rate_down": (
            dict(max_step_down=2),
            [2, 10, 8, 12, 10, 8, 20, 18, 16],
            {2, 4, 5, 7, 8},
            {"rate_down": 5},
        ),
        "cooldown": (
            dict(scale_down_cooldown=2),
            [2, 10, 10, 12, 12, 12, 20, 20, 20],
            {2, 4, 5, 7, 8},
            {"cooldown": 5},
        ),
    }

    def _walk(self, monkeypatch, **rail):
        """The scripted walk, counting the calls to ``_apply_rails``."""
        calls = []
        apply_rails = HybridController._apply_rails

        def counted(self, target):
            calls.append(target)
            return apply_rails(self, target)

        monkeypatch.setattr(HybridController, "_apply_rails", counted)
        controller = HybridController(ControllerConfig(**self.PASSTHROUGH, **rail))
        decisions = [
            controller.step(f, np.full(i + 1, 5.0))
            for i, f in enumerate(self.FORECASTS)
        ]
        return controller, decisions, len(calls)

    @pytest.mark.parametrize("rail", sorted(CLIPPED))
    def test_single_rail_still_clips(self, monkeypatch, rail):
        kwargs, vms, clipped, hits = self.CLIPPED[rail]
        controller, decisions, calls = self._walk(monkeypatch, **kwargs)
        assert not controller._rails_off
        assert calls == len(self.FORECASTS)
        assert [d.vms for d in decisions] == vms
        assert [d.rails for d in decisions] == [
            (rail,) if i in clipped else () for i in range(len(vms))
        ]
        assert controller.rail_hits == hits

    def test_all_rails_off_takes_the_fast_path(self, monkeypatch):
        controller, decisions, calls = self._walk(monkeypatch)
        assert controller._rails_off
        assert calls == 0
        assert [d.vms for d in decisions] == [2, 10, 3, 12, 1, 1, 20, 1, 6]
        assert all(d.rails == () for d in decisions)
        assert controller.rail_hits == {}


class TestExtremeInputs:
    def test_overflowing_error_falls_to_reactive(self):
        c = HybridController()
        c.step(-1e308, np.array([1.0]))
        d = c.step(5.0, np.array([1.0, 1e308]))  # error overflows to +inf
        assert d.decided_by == "reactive" and math.isnan(d.correction)
        assert d.vms == math.ceil(1e308)

    def test_overflowing_reactive_headroom_holds(self):
        c = HybridController(ControllerConfig(reactive_headroom=10.0))
        d = c.step(float("nan"), np.array([1e308]))
        assert d.decided_by == "hold" and d.vms == 0

    @given(
        forecasts=arrays(np.float64, 40, elements=any_float),
        arrivals=arrays(np.float64, 40, elements=any_float),
        min_vms=st.integers(0, 5),
        span=st.one_of(st.none(), st.integers(0, 50)),
        headroom=st.sampled_from([1.0, 0.5, 10.0, 1e300]),
    )
    @settings(max_examples=80, deadline=None)
    def test_step_never_raises_and_holds_rails(
        self, forecasts, arrivals, min_vms, span, headroom,
    ):
        max_vms = None if span is None else min_vms + span
        cfg = ControllerConfig(min_vms=min_vms, max_vms=max_vms,
                               reactive_headroom=headroom, error_window=8)
        controller = HybridController(cfg, drift_detector=PageHinkleyDetector())
        for d in _walk(controller, forecasts, arrivals):
            assert math.isfinite(d.target)
            assert d.vms >= min_vms
            assert max_vms is None or d.vms <= max_vms

    @pytest.mark.parametrize("window", [1, 3, 8])
    def test_strided_column_decides_as_its_contiguous_copy(self, window):
        """A 2-D feed's target column is a strided view; ``step`` reads
        only its tail, and decides exactly as on a contiguous copy."""
        rng = np.random.default_rng(window)
        mv = rng.uniform(0.0, 200.0, size=(300, 3))
        mv[::17, 1] = np.nan
        mv[150:160, 1] = 5000.0
        forecasts = rng.uniform(0.0, 200.0, size=300)
        forecasts[::11] = np.nan
        column = mv[:, 1]
        assert not column.flags.c_contiguous
        runs = []
        for history in (column, np.ascontiguousarray(column)):
            controller = HybridController(
                ControllerConfig(reactive_window=window),
                drift_detector=PageHinkleyDetector(),
            )
            runs.append([
                repr(controller.step(f, history[: i + 1]))
                for i, f in enumerate(forecasts)
            ])
        assert runs[0] == runs[1]


# Values whose differences repeat (duplicate errors), change sign, sit
# on a signed zero, or overflow to +inf (1e308 - -1e308).
oracle_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.5, -1.0, 1e308, -1e308]),
    st.floats(-1e6, 1e6),
)


class TestOracle:
    """The sorted window and scalar loops against the code they replaced."""

    @given(
        forecasts=st.lists(oracle_values, min_size=1, max_size=40),
        actuals=st.lists(st.one_of(oracle_values, st.just(math.nan)),
                         min_size=40, max_size=40),
        window=st.integers(2, 12),
        q_random=st.floats(0.0, 1.0),
        reload_at=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantile_matches_np_quantile(
        self, forecasts, actuals, window, q_random, reload_at,
    ):
        cfg = ControllerConfig(error_window=window, burst_streak=None)
        controller = HybridController(cfg)
        qs = (0, 0.0, 0.75, 0.95, 1, 1.0, q_random)
        for i, f in enumerate(forecasts):
            if i == reload_at:
                state = json.loads(json.dumps(controller.state_dict()))
                controller = HybridController(cfg)
                controller.load_state_dict(state)
            controller.step(f, np.asarray(actuals[: i + 1]))
            for q in qs:
                got = controller._positive_error_quantile(
                    q, isinstance(q, numbers.Integral)
                )
                with np.errstate(invalid="ignore"):  # inf - inf is NaN
                    want = _reference_positive_error_quantile(controller, q)
                assert _bits(got) == _bits(want), (q, list(controller._errors))

    @given(
        history=arrays(np.float64, st.integers(0, 20), elements=st.one_of(
            any_float, st.sampled_from([0.0, -0.0, 1e308, -math.inf]),
        )),
        window=st.integers(1, 16),
        headroom=st.one_of(st.sampled_from([1.0, 0.5, 10.0]),
                           st.floats(1e-3, 1e3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_reactive_target_matches_numpy(self, history, window, headroom):
        controller = HybridController(ControllerConfig(
            reactive_window=window, reactive_headroom=headroom,
        ))
        got = controller._reactive_target(history[-window:].tolist())
        want = _reference_reactive_target(controller, history)
        if want is not None and not math.isfinite(want):
            want = None  # an overflowing headroom is a dead signal now
        if window <= 8:
            assert _bits(got) == _bits(want)
        else:
            # numpy's vector max may return either sign of a 0.0 tie.
            assert got == want


class TestDegradationTiers:
    def test_nan_forecast_goes_reactive(self):
        controller = HybridController(ControllerConfig())
        d = controller.step(float("nan"), np.array([4.0, 7.0, 5.0]))
        assert d.decided_by == "reactive"
        assert d.vms >= 7  # max of the last-3 window

    def test_open_breaker_goes_reactive(self):
        class FakeBreaker:
            state = "open"

        controller = HybridController(ControllerConfig(), breaker=FakeBreaker())
        d = controller.step(50.0, np.array([4.0, 7.0, 5.0]))
        assert d.decided_by == "reactive"

    def test_dead_reactive_signal_holds_last_decision(self):
        controller = HybridController(ControllerConfig(reactive_window=2))
        d1 = controller.step(10.0, np.array([8.0]))
        d2 = controller.step(float("nan"), np.array([8.0, np.nan, np.nan]))
        assert d2.decided_by == "hold"
        assert d2.vms == d1.vms

    def test_no_history_no_signal_provisions_min(self):
        controller = HybridController(ControllerConfig(min_vms=3))
        d = controller.step(float("nan"), np.array([]))
        assert d.decided_by == "hold" and d.vms == 3

    def test_provenance_counts_sum_to_decisions(self):
        rng = np.random.default_rng(0)
        arrivals = rng.uniform(0, 50, 30)
        controller = HybridController(ControllerConfig())
        _walk(controller, rng.uniform(0, 50, 30), arrivals)
        assert sum(controller.decided_by.values()) == 30
        assert len(controller.decisions) == 30


class TestBurst:
    def test_underprovision_streak_latches_and_clears(self):
        cfg = ControllerConfig(
            kp=0.0, ki=0.0, kd=0.0, headroom_quantile=None,
            burst_streak=3, burst_clear=4, burst_quantile=1.0,
        )
        controller = HybridController(cfg)
        arrivals: list[float] = []
        # Forecast 10 while 20 arrives: underprovisioned every interval.
        # Decision 0 is unscored (nothing to compare against), so the
        # 3-streak completes — and latches — on decision 3.
        for i in range(4):
            arrivals.append(20.0)
            d = controller.step(10.0, np.asarray(arrivals))
        assert d.burst and controller.burst_reason == "underprovision_streak"
        assert d.decided_by == "burst"
        # Burst provisions forecast + Q1(positive errors) = 10 + 10 = 20.
        assert d.vms == 20
        # Once the forecast catches up, provisioning stays adequate, the
        # clean streak builds, and the latch clears after `burst_clear`.
        cleared_at = None
        for i in range(4, 14):
            arrivals.append(20.0)
            d = controller.step(20.0, np.asarray(arrivals))
            if not d.burst and cleared_at is None:
                cleared_at = i
        assert cleared_at == 7  # clean streak 4 completes on decision 7
        assert not controller.burst and controller.burst_reason is None
        assert controller.burst_episodes == 1

    def test_burst_streak_none_disables_streak_trigger(self):
        cfg = ControllerConfig(kp=0.0, ki=0.0, kd=0.0, headroom_quantile=None,
                               burst_streak=None)
        controller = HybridController(cfg)
        arrivals: list[float] = []
        for _ in range(20):
            arrivals.append(20.0)
            d = controller.step(10.0, np.asarray(arrivals))
            assert not d.burst

    def test_drift_latch_triggers_burst_and_clear_resets_detector(self):
        detector = PageHinkleyDetector()
        controller = HybridController(
            ControllerConfig(burst_streak=None, burst_clear=5),
            drift_detector=detector,
        )
        arrivals = np.full(100, 100.0)
        saw_burst = False
        for i in range(1, arrivals.size):
            forecast = 100.0 * (0.4 if 20 <= i < 50 else 1.0)
            d = controller.step(forecast, arrivals[:i])
            saw_burst |= d.burst
        assert saw_burst
        assert controller.burst_episodes == 1
        assert not controller.burst
        assert not detector.drifted, "clearing burst must reset the latch"

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_burst_deterministic_replay(self, data):
        """The same stream produces the same burst trajectory, always."""
        n = 30
        forecasts = data.draw(arrays(np.float64, n, elements=st.floats(0, 100)))
        arrivals = data.draw(arrays(np.float64, n, elements=st.floats(0, 100)))
        cfg = ControllerConfig(burst_streak=2, burst_clear=3)
        run1 = [d.burst for d in _walk(HybridController(cfg), forecasts, arrivals)]
        run2 = [d.burst for d in _walk(HybridController(cfg), forecasts, arrivals)]
        assert run1 == run2


class TestZeroOverhead:
    @given(arrivals=arrays(np.float64, 60, elements=st.floats(0, 1000)))
    @settings(max_examples=30, deadline=None)
    def test_passthrough_matches_predictive_bit_for_bit(self, arrivals):
        predictive = PredictivePolicy(LastValuePredictor()).schedule(arrivals, 30)
        hybrid = PredictivePolicy(
            LastValuePredictor(),
            controller=HybridController(ControllerConfig.passthrough()),
        ).schedule(arrivals, 30)
        np.testing.assert_array_equal(predictive, hybrid)

    def test_passthrough_matches_seasonal_predictor(self):
        rng = np.random.default_rng(1)
        arrivals = rng.poisson(80, 300).astype(np.float64)
        predictive = PredictivePolicy(SeasonalNaivePredictor(48)).schedule(
            arrivals, 150
        )
        hybrid = PredictivePolicy(
            SeasonalNaivePredictor(48),
            controller=HybridController(ControllerConfig.passthrough()),
        ).schedule(arrivals, 150)
        np.testing.assert_array_equal(predictive, hybrid)

    def test_passthrough_decisions_are_proactive(self):
        rng = np.random.default_rng(2)
        arrivals = rng.uniform(0, 50, 40)
        policy = PredictivePolicy(
            LastValuePredictor(),
            controller=HybridController(ControllerConfig.passthrough()),
        )
        policy.schedule(arrivals, 20)
        assert set(policy.controller.decided_by) == {"proactive"}


class TestHybridPolicy:
    def test_schedule_survives_nan_stream(self):
        arrivals = np.array([10.0] * 20 + [np.nan] * 5 + [12.0] * 15)
        policy = PredictivePolicy(LastValuePredictor(), controller=HybridController())
        schedule = policy.schedule(arrivals, 10)
        assert np.all(np.isfinite(schedule)) and np.all(schedule >= 0)

    def test_breaker_autodetected_from_guarded(self):
        from repro.serving import GuardedPredictor

        guarded = GuardedPredictor(LastValuePredictor())
        policy = PredictivePolicy(guarded, controller=HybridController())
        policy.schedule(np.full(30, 10.0), 20)
        assert policy.controller.breaker is guarded.breaker

    def test_forecast_outage_shifts_provenance(self):
        from repro.serving import OPEN, GuardedPredictor

        guarded = GuardedPredictor(LastValuePredictor())
        policy = PredictivePolicy(guarded, controller=HybridController())
        arrivals = np.full(60, 30.0)
        with faults.injected("boom@serve.predict:*"):
            schedule = policy.schedule(arrivals, 20)
        assert np.all(np.isfinite(schedule))
        assert guarded.breaker.state == OPEN
        assert policy.controller.decided_by.get("reactive", 0) > 0

    def test_fresh_loop_per_schedule_call(self):
        rng = np.random.default_rng(4)
        arrivals = rng.uniform(10, 60, 50)
        policy = PredictivePolicy(LastValuePredictor(), controller=HybridController())
        s1 = policy.schedule(arrivals, 25)
        s2 = policy.schedule(arrivals, 25)
        np.testing.assert_array_equal(s1, s2)
        assert len(policy.controller.decisions) == 25

    @pytest.mark.parametrize("width", [2, 3])
    def test_multivariate_arrivals_serve_the_target_channel(self, width):
        """An ``(N, D)`` trace is N intervals, decided on the target channel."""
        from repro.baselines.base import Predictor

        class TargetLastValue(Predictor):
            name = "target-last"
            target_channel = 1

            def predict_next(self, history):
                h = np.asarray(history)
                return float(h[-1, 1] if h.ndim == 2 else h[-1])

        n, start = 1200, 900
        rng = np.random.default_rng(11)
        target = 100.0 + 30.0 * np.sin(np.arange(n) / 20.0) + rng.normal(0, 3, n)
        # Channels besides the target that must not leak into decisions.
        noise = rng.uniform(1e4, 1e5, (n, width - 1))
        both = np.column_stack([noise[:, 0], target, noise[:, 1:]])
        schedule = PredictivePolicy(
            TargetLastValue(), controller=HybridController()
        ).schedule(both, start)
        assert schedule.shape == (n - start,)
        univariate = PredictivePolicy(
            TargetLastValue(), controller=HybridController()
        ).schedule(target, start)
        assert schedule.tobytes() == univariate.tobytes()

    def test_start_validation(self):
        with pytest.raises(ValueError):
            PredictivePolicy(
                LastValuePredictor(), controller=HybridController()
            ).schedule(np.ones(5), 0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"integral_limit": -1.0},
            {"headroom_quantile": 1.5},
            {"error_window": 1},
            {"reactive_window": 0},
            {"reactive_headroom": 0.0},
            {"min_vms": -1},
            {"min_vms": 5, "max_vms": 4},
            {"max_step_up": -1},
            {"max_step_down": -2},
            {"scale_down_cooldown": -1},
            {"burst_streak": 0},
            {"burst_clear": 0},
            {"burst_quantile": 2.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)

    def test_snapshot_shape(self):
        controller = HybridController()
        controller.step(5.0, np.array([4.0]))
        snap = controller.snapshot()
        assert snap["n_decisions"] == 1
        assert set(snap) >= {
            "decided_by", "rail_hits", "burst", "burst_reason",
            "burst_episodes", "integral",
        }
        assert math.isfinite(snap["integral"])


class TestScenarios:
    def test_default_scenarios_deterministic(self):
        from repro.autoscale import default_scenarios
        from repro.autoscale.scenarios import SCENARIO_NAMES

        a = default_scenarios(days=4, serve_days=2, seed=9)
        b = default_scenarios(days=4, serve_days=2, seed=9)
        assert [s.name for s in a] == list(SCENARIO_NAMES)
        for sa, sb in zip(a, b, strict=True):
            np.testing.assert_array_equal(sa.actual, sb.actual)
            np.testing.assert_array_equal(sa.observed, sb.observed)

    def test_actual_always_finite_observed_may_not_be(self):
        from repro.autoscale import default_scenarios

        for s in default_scenarios(days=4, serve_days=2):
            assert np.all(np.isfinite(s.actual)), s.name
            if s.name == "corruption":
                assert np.isnan(s.observed).any()

    def test_run_matrix_quick_cell(self):
        from repro.autoscale import default_scenarios, run_matrix

        scenarios = [default_scenarios(days=4, serve_days=2)[0]]
        matrix = run_matrix(scenarios, policies=("reactive", "hybrid"))
        cell = matrix["scenarios"]["steady"]["policies"]
        assert set(cell) == {"reactive", "hybrid"}
        assert "controller" in cell["hybrid"]
        for row in cell.values():
            assert math.isfinite(row["total_cost"])
            assert "sla_violation_rate_pct" in row