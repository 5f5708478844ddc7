"""Collaborative proactive+reactive auto-scaling controller.

The paper's auto-scaler provisions purely from the forecast (Section
IV-C), so a bad forecast becomes a bad scaling decision.  OptScaler
(PAPERS.md) shows the robust pattern: keep the *proactive* forecast as
the primary signal but correct it with a *reactive* feedback term
computed from the observed forecast error, and wrap the whole thing in
explicit safety rails so no combination of model failure and disturbance
can produce a runaway decision.  :class:`HybridController` implements
that closed loop over any :class:`~repro.baselines.base.Predictor`
(typically a :class:`~repro.serving.guard.GuardedPredictor`):

* **proactive + corrector** — the decision starts from the forecast and
  adds a PID-style term on the observed forecast error (proportional on
  the last error, integral with anti-windup, optional derivative) plus a
  rolling-quantile *headroom* (an upper quantile of recent positive
  errors, i.e. how much the forecaster has recently underpredicted);
* **safety rails** — min/max VM bounds, per-step scale-up/scale-down
  rate limits, and a scale-down cooldown after any scale-up; every rail
  that clips a decision is recorded on it and counted;
* **burst mode** — a latched high-provisioning state entered after
  ``burst_streak`` consecutive underprovisioned intervals or when an
  attached :class:`~repro.obs.monitor.drift.DriftDetector` fires; while
  latched the controller provisions at least ``forecast +
  Q_{burst_quantile}(positive errors)``, and the latch clears only after
  ``burst_clear`` consecutive adequately-provisioned intervals (a
  still-latched detector is reset at that point, recalibrating it on the
  now-healthy stream);
* **tiered degradation** — a non-finite/unavailable forecast or an open
  circuit breaker routes the decision to pure-reactive provisioning
  (max of the last ``reactive_window`` observed arrivals times a
  headroom factor); a dead reactive signal (no finite observation in the
  window) falls back to holding the last decision.  Every decision
  carries a ``decided_by`` provenance tag, and path changes emit
  ``autoscale.controller.*`` counters and events;
* **finite targets only** — a tier whose target is not finite (an
  overflowing corrector, a NaN headroom quantile over ``+inf`` errors,
  a reactive peak whose headroom overflows) is treated like an
  unavailable one: the decision falls to the next tier (reactive, then
  hold), and a non-finite burst target never overrides.  Only finite
  targets reach the rails, so no input stream makes :meth:`step` raise.

**Zero-overhead guarantee**: with all corrector gains zero, headroom
disabled, rails disabled, and no burst trigger, the emitted schedule is
*bit-for-bit* the predictive policy's ``ceil(max(forecast, 0))`` — the
controller only ever adds arithmetic when a non-zero correction exists
(regression-tested in ``tests/test_autoscale_controller.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from repro import state as _state
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger

__all__ = [
    "DECIDED_BY",
    "ControllerConfig",
    "Decision",
    "HybridController",
]

logger = get_logger("autoscale.controller")

#: Decision provenance tags, healthiest first: pure forecast, corrected
#: forecast, burst override, reactive takeover, hold-last-decision.
DECIDED_BY = ("proactive", "hybrid", "burst", "reactive", "hold")
#: Safety rails, in application order.
RAILS = ("rate_up", "cooldown", "rate_down", "max_vms", "min_vms")


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs for :class:`HybridController`.

    Corrector
    ---------
    kp / ki / kd:
        PID gains on the observed forecast error (``actual - forecast``).
        All-zero gains plus ``headroom_quantile=None`` make the proactive
        path a bitwise pass-through of the forecast.
    integral_limit:
        Anti-windup clamp: the raw error integral is held in
        ``[-integral_limit, +integral_limit]`` so a long outage cannot
        wind up an absurd correction.
    headroom_quantile:
        Provision this quantile of recent *positive* errors on top of the
        forecast (how much the model has recently underpredicted);
        ``None`` disables the headroom term.
    error_window:
        Rolling window of scored forecast errors feeding the integral
        decay horizon, the headroom quantile, and the burst target.

    Reactive tier
    -------------
    reactive_window / reactive_headroom:
        Degraded-mode provisioning is ``reactive_headroom x max`` of the
        finite observations among the last ``reactive_window`` arrivals
        (the generalized :class:`~repro.autoscale.policy.ReactivePolicy`
        rule).  No finite observation in the window means the reactive
        signal is dead and the controller holds its last decision.

    Safety rails
    ------------
    min_vms / max_vms:
        Hard bounds on every decision (``max_vms=None`` = unbounded).
    max_step_up / max_step_down:
        Per-step rate limits relative to the previous decision
        (``None`` = unlimited).
    scale_down_cooldown:
        After any scale-up, scale-downs are held for this many decisions
        (0 disables).

    Burst mode
    ----------
    burst_streak:
        Consecutive underprovisioned intervals that latch burst mode
        (``None`` disables the underprovision trigger; a drift detector
        can still latch it).
    burst_clear:
        Consecutive adequately-provisioned intervals that clear the latch.
    burst_quantile:
        While latched, provision at least ``reference +
        Q_{burst_quantile}(positive errors)``.
    """

    kp: float = 0.5
    ki: float = 0.1
    kd: float = 0.0
    integral_limit: float = 100.0
    headroom_quantile: float | None = 0.75
    error_window: int = 64
    reactive_window: int = 3
    reactive_headroom: float = 1.0
    min_vms: int = 0
    max_vms: int | None = None
    max_step_up: int | None = None
    max_step_down: int | None = None
    scale_down_cooldown: int = 0
    burst_streak: int | None = 3
    burst_clear: int = 6
    burst_quantile: float = 0.95

    def __post_init__(self):
        if self.integral_limit < 0:
            raise ValueError("integral_limit must be non-negative")
        if self.headroom_quantile is not None and not 0.0 <= self.headroom_quantile <= 1.0:
            raise ValueError("headroom_quantile must be in [0, 1] or None")
        if self.error_window < 2:
            raise ValueError("error_window must be >= 2")
        if self.reactive_window < 1:
            raise ValueError("reactive_window must be >= 1")
        if self.reactive_headroom <= 0:
            raise ValueError("reactive_headroom must be positive")
        if self.min_vms < 0:
            raise ValueError("min_vms must be non-negative")
        if self.max_vms is not None and self.max_vms < self.min_vms:
            raise ValueError("max_vms must be >= min_vms")
        if self.max_step_up is not None and self.max_step_up < 0:
            raise ValueError("max_step_up must be non-negative")
        if self.max_step_down is not None and self.max_step_down < 0:
            raise ValueError("max_step_down must be non-negative")
        if self.scale_down_cooldown < 0:
            raise ValueError("scale_down_cooldown must be non-negative")
        if self.burst_streak is not None and self.burst_streak < 1:
            raise ValueError("burst_streak must be >= 1 or None")
        if self.burst_clear < 1:
            raise ValueError("burst_clear must be >= 1")
        if not 0.0 <= self.burst_quantile <= 1.0:
            raise ValueError("burst_quantile must be in [0, 1]")

    @classmethod
    def passthrough(cls) -> "ControllerConfig":
        """Corrector off, rails off, burst off: bit-for-bit predictive."""
        return cls(
            kp=0.0, ki=0.0, kd=0.0, headroom_quantile=None,
            min_vms=0, max_vms=None, max_step_up=None, max_step_down=None,
            scale_down_cooldown=0, burst_streak=None,
        )

    @property
    def corrector_enabled(self) -> bool:
        """True when any corrector term can produce a non-zero correction."""
        return (
            self.kp != 0.0
            or self.ki != 0.0
            or self.kd != 0.0
            or self.headroom_quantile is not None
        )


class Decision(NamedTuple):
    """One provisioning decision with full provenance.

    ``vms`` is the final (post-rail) whole-VM count; ``target`` the
    continuous pre-rail target; ``rails`` names every rail that clipped
    it, in application order.  A named tuple: immutable, and under half
    a frozen dataclass's construction cost, once per interval.
    """

    vms: int
    decided_by: str
    target: float
    rails: tuple[str, ...] = ()
    burst: bool = False
    forecast: float = math.nan
    correction: float = 0.0


def _decision_row(d: Decision) -> list:
    return [d.vms, d.decided_by, d.target, list(d.rails), d.burst,
            d.forecast, d.correction]


def _decision(row, owner) -> Decision:
    vms, tag, target, rails, burst, forecast, correction = row
    return Decision(
        vms=int(vms), decided_by=str(tag), target=float(target),
        rails=tuple(str(r) for r in rails), burst=bool(burst),
        forecast=float(forecast), correction=float(correction),
    )


class HybridController(_state.Persistent):
    """Stateful closed-loop controller: one :meth:`step` per interval.

    Parameters
    ----------
    config:
        A :class:`ControllerConfig`; defaults are production-leaning
        (corrector on, burst on, rails unbounded).
    drift_detector:
        Anything matching the
        :class:`~repro.obs.monitor.drift.DriftDetector` protocol.  Its
        scored errors come from this controller (absolute percentage
        errors, like :class:`~repro.core.adaptive.AdaptiveLoadDynamics`
        feeds it), and its latched ``drifted`` flag triggers burst mode
        — share one instance with ``AdaptiveLoadDynamics`` (see its
        ``drift_latch`` property) and a fired detector both refits the
        model *and* provisions defensively while the refit catches up.
    breaker:
        Anything with a string ``state`` attribute (duck-typed so the
        autoscale layer needs no serving import); ``"open"`` routes
        decisions to the reactive tier.
        :class:`~repro.serving.stream.StreamingServer` wires a guarded
        predictor's breaker in automatically.
    """

    #: Breaker state that sheds the proactive path (matches
    #: :data:`repro.serving.breaker.OPEN` without importing serving).
    BREAKER_OPEN = "open"

    #: Persisted control-loop state (:mod:`repro.state`) with the values
    #: :meth:`reset` restarts it from: the decision log (with
    #: provenance), the corrector terms, the burst latch, the
    #: rail/cooldown bookkeeping, and — when it carries state — the
    #: attached drift detector's.  Loading one detector's state twice
    #: (here and via a :class:`~repro.obs.monitor.monitor.ForecastMonitor`
    #: sharing the instance) is idempotent, so shared detectors stay
    #: consistent.
    _STATE = (
        # every decision made since the last reset, in order
        ("decisions", "decisions",
         _state.listed(_state.Codec(_decision_row, _decision)), []),
        # decision counts per provenance tag
        ("decided_by", "decided_by", _state.COUNTS, {}),
        # clip counts per rail name
        ("rail_hits", "rail_hits", _state.COUNTS, {}),
        ("burst", "burst", _state.BOOL, False),
        ("burst_reason", "burst_reason", _state.optional(_state.STR), None),
        # completed + in-progress burst episodes
        ("burst_episodes", "burst_episodes", _state.INT, 0),
        ("errors", "_errors",
         _state.window(_state.FLOAT, "config.error_window", maxlen=True), []),
        ("integral", "_integral", _state.FLOAT, 0.0),
        ("prev_error", "_prev_error", _state.optional(_state.FLOAT), None),
        ("derivative", "_derivative", _state.FLOAT, 0.0),
        ("last_forecast", "_last_forecast", _state.optional(_state.FLOAT), None),
        ("last_vms", "_last_vms", _state.optional(_state.INT), None),
        ("under_streak", "_under_streak", _state.INT, 0),
        ("clean_streak", "_clean_streak", _state.INT, 0),
        ("cooldown", "_cooldown", _state.INT, 0),
        ("last_tag", "_last_tag", _state.optional(_state.STR), None),
        ("drift_detector", "drift_detector", _state.OPTIONAL_CHILD),
    )

    def __init__(
        self,
        config: ControllerConfig | None = None,
        drift_detector=None,
        breaker=None,
    ):
        self.config = config if config is not None else ControllerConfig()
        self.drift_detector = drift_detector
        self.breaker = breaker

        # Hot-path metric handles resolved once, not per decision.
        self._c_decisions = _metrics.counter("autoscale.controller.decisions")
        self._c_by = {
            tag: _metrics.counter(f"autoscale.controller.decided_by.{tag}")
            for tag in DECIDED_BY
        }
        self._c_rail = {
            rail: _metrics.counter(f"autoscale.controller.rail.{rail}")
            for rail in RAILS
        }
        self._c_burst_in = _metrics.counter("autoscale.controller.burst.entered")
        self._c_burst_out = _metrics.counter("autoscale.controller.burst.exited")

        # Read once from the frozen config, not per decision: whether no
        # rail can clip (so :meth:`step` skips :meth:`_apply_rails`), and
        # whether each quantile is integral (numpy then indexes without
        # interpolating).
        cfg = self.config
        self._rails_off = (
            cfg.min_vms == 0 and cfg.max_vms is None
            and cfg.max_step_up is None and cfg.max_step_down is None
            and cfg.scale_down_cooldown == 0
        )
        self._headroom_integral = isinstance(cfg.headroom_quantile, Integral)
        self._burst_integral = isinstance(cfg.burst_quantile, Integral)

        self.reset()

    def reset(self) -> None:
        """Restart the control loop (fresh series); telemetry keeps counting."""
        _state.reset(self)
        #: The positive entries of ``_errors``, kept sorted.
        self._pos: list[float] = []

    def _loaded(self, state: dict) -> None:
        self._pos = sorted(e for e in self._errors if e > 0.0)

    # ------------------------------------------------------------------
    # scoring: consume the newly revealed arrival
    # ------------------------------------------------------------------
    def _score(self, actual: float) -> None:
        if not math.isfinite(actual):
            # Unobserved interval: corrector and burst streaks freeze —
            # a sensor outage is not evidence either way.
            return
        if self._last_forecast is not None and math.isfinite(self._last_forecast):
            e = actual - self._last_forecast
            errors = self._errors
            if len(errors) == errors.maxlen and errors[0] > 0.0:
                del self._pos[bisect_left(self._pos, errors[0])]
            errors.append(e)
            if e > 0.0:
                insort(self._pos, e)
            cfg = self.config
            self._integral = min(
                max(self._integral + e, -cfg.integral_limit), cfg.integral_limit
            )
            self._derivative = e - (self._prev_error if self._prev_error is not None else e)
            self._prev_error = e
            if self.drift_detector is not None:
                ape = 100.0 * abs(e) / max(abs(actual), 1e-9)
                self.drift_detector.update(ape)
        if self._last_vms is not None:
            if actual > self._last_vms:
                self._under_streak += 1
                self._clean_streak = 0
            else:
                self._clean_streak += 1
                self._under_streak = 0

    # ------------------------------------------------------------------
    # burst latch
    # ------------------------------------------------------------------
    def _update_burst(self) -> None:
        cfg = self.config
        drift_latched = self.drift_detector is not None and bool(
            getattr(self.drift_detector, "drifted", False)
        )
        if not self.burst:
            reason = None
            if cfg.burst_streak is not None and self._under_streak >= cfg.burst_streak:
                reason = "underprovision_streak"
            elif drift_latched:
                reason = "drift_latch"
            if reason is not None:
                self.burst = True
                self.burst_reason = reason
                self.burst_episodes += 1
                self._c_burst_in.inc()
                logger.warning("burst mode latched (%s)", reason)
                if _events.enabled():
                    _events.emit(
                        "autoscale.controller.burst", state="entered", reason=reason,
                    )
        elif self._clean_streak >= cfg.burst_clear:
            if drift_latched:
                # Provisioning has been adequate for a full clear window:
                # whatever regime the detector latched on is now handled
                # (or refitted away upstream) — recalibrate it so the
                # next drift is detectable, and release the latch.
                self.drift_detector.reset()
            self.burst = False
            self._c_burst_out.inc()
            logger.info("burst mode cleared (%s)", self.burst_reason)
            if _events.enabled():
                _events.emit(
                    "autoscale.controller.burst",
                    state="exited", reason=self.burst_reason,
                )
            self.burst_reason = None

    # ------------------------------------------------------------------
    def _positive_error_quantile(self, q: float, integral: bool) -> float:
        """``np.quantile(positive errors, q)`` (method ``linear``), bit
        for bit, over the sorted window: the same virtual index, the
        same above-bound neighbours and the same two-sided lerp.
        ``integral`` says whether ``q`` is an integral number."""
        pos = self._pos
        n = len(pos)
        if not n:
            return 0.0
        if integral:
            # numpy takes an integral q's element without interpolating.
            return pos[(n - 1) * q]
        vi = (n - 1) * q
        if vi >= n - 1:
            a = b = pos[-1]
            gamma = vi + 1
        else:
            prev = math.floor(vi)
            a, b = pos[prev], pos[prev + 1]
            gamma = vi - prev
        diff = b - a
        if gamma >= 0.5:
            return b - diff * (1 - gamma)
        return a + diff * gamma

    def _reactive_target(self, tail: list[float]) -> float | None:
        """Generalized reactive rule over ``tail``, the last
        ``reactive_window`` observed arrivals, or ``None`` when the signal
        is dead or its headroom overflows.

        Ties keep the later value, as numpy's scalar ``max`` loop does
        (the two differ only in the sign of a ``±0.0`` peak, which
        numpy's vector loop, used from 9 values on, may pick either way).
        """
        cfg = self.config
        peak = None
        for v in tail:
            if math.isfinite(v) and (peak is None or v >= peak):
                peak = v
        if peak is not None and cfg.reactive_headroom != 1.0:
            peak *= cfg.reactive_headroom
            if not math.isfinite(peak):
                return None
        return peak

    # ------------------------------------------------------------------
    def step(self, forecast: float, history: np.ndarray) -> Decision:
        """Decide the VM count for the next interval.

        ``forecast`` is the proactive prediction for the interval being
        provisioned (non-finite = unavailable); ``history`` the observed
        arrivals so far — ``history[-1]`` is the newly revealed actual
        that scores the previous forecast and decision.  Call exactly
        once per interval, walking forward.
        """
        cfg = self.config
        # Only the newest value and the reactive window are read, so only
        # that tail is copied, once, to floats both the scoring and the
        # reactive rule read.
        tail = np.asarray(history, dtype=np.float64)[-cfg.reactive_window :].tolist()
        if tail:
            self._score(tail[-1])
        self._update_burst()

        forecast = float(forecast)
        proactive_ok = math.isfinite(forecast) and not (
            self.breaker is not None
            and getattr(self.breaker, "state", None) == self.BREAKER_OPEN
        )
        reactive = self._reactive_target(tail)

        correction = 0.0
        target = math.nan
        if proactive_ok:
            if cfg.corrector_enabled and self._prev_error is not None:
                correction = (
                    cfg.kp * self._prev_error
                    + cfg.ki * self._integral
                    + cfg.kd * self._derivative
                )
                if cfg.headroom_quantile is not None:
                    correction += self._positive_error_quantile(
                        cfg.headroom_quantile, self._headroom_integral
                    )
            if correction != 0.0:
                target = forecast + correction
                decided_by = "hybrid"
            else:
                # Bitwise pass-through: no arithmetic touches the forecast.
                target = forecast
                decided_by = "proactive"
        if not math.isfinite(target):
            # No usable proactive target: reactive, then hold.
            if reactive is not None:
                target = reactive
                decided_by = "reactive"
            else:
                last = self._last_vms
                target = float(last if last is not None else cfg.min_vms)
                decided_by = "hold"

        if self.burst:
            reference = (
                forecast if proactive_ok
                else reactive if reactive is not None
                else target
            )
            burst_target = reference + self._positive_error_quantile(
                cfg.burst_quantile, self._burst_integral
            )
            if target < burst_target < math.inf:
                target = burst_target
                decided_by = "burst"

        if self._rails_off and not self._cooldown:
            # No rail can clip: only the rails' rounding applies.
            vms = math.ceil(max(target, 0.0))
            rails = ()
        else:
            vms, rails = self._apply_rails(target)
        decision = Decision(
            vms, decided_by, target, rails, self.burst, forecast, correction
        )
        self._record(decision)
        self._last_forecast = forecast if proactive_ok else None
        self._last_vms = vms
        return decision

    # ------------------------------------------------------------------
    def _apply_rails(self, target: float) -> tuple[int, tuple[str, ...]]:
        """Rate limits and cooldown relative to the previous decision,
        then hard bounds.

        The previous decision always sits inside ``[min_vms, max_vms]``,
        so clamping after the relative rails can only move the value
        *toward* the previous one — both the bounds invariant and the
        rate-limit invariant hold on every decision simultaneously.
        """
        cfg = self.config
        vms = int(math.ceil(max(target, 0.0)))
        rails: list[str] = []
        prev = self._last_vms
        if prev is not None:
            if cfg.max_step_up is not None and vms > prev + cfg.max_step_up:
                vms = prev + cfg.max_step_up
                rails.append("rate_up")
            if vms < prev:
                if self._cooldown > 0:
                    vms = prev
                    rails.append("cooldown")
                elif cfg.max_step_down is not None and vms < prev - cfg.max_step_down:
                    vms = prev - cfg.max_step_down
                    rails.append("rate_down")
        if cfg.max_vms is not None and vms > cfg.max_vms:
            vms = cfg.max_vms
            rails.append("max_vms")
        if vms < cfg.min_vms:
            vms = cfg.min_vms
            rails.append("min_vms")

        if self._cooldown > 0:
            self._cooldown -= 1
        if prev is not None and vms > prev and cfg.scale_down_cooldown > 0:
            self._cooldown = cfg.scale_down_cooldown
        return vms, tuple(rails)

    def _record(self, decision: Decision) -> None:
        self.decisions.append(decision)
        tag = decision.decided_by
        self.decided_by[tag] = self.decided_by.get(tag, 0) + 1
        self._c_decisions.inc()
        self._c_by[tag].inc()
        for rail in decision.rails:
            self.rail_hits[rail] = self.rail_hits.get(rail, 0) + 1
            self._c_rail[rail].inc()
        if tag != self._last_tag:
            if self._last_tag is not None and _events.enabled():
                _events.emit(
                    "autoscale.controller.path",
                    from_path=self._last_tag, to_path=tag,
                    n_decisions=len(self.decisions),
                )
            self._last_tag = tag

    # ------------------------------------------------------------------
    @property
    def integral(self) -> float:
        """Current (anti-windup-clamped) error integral."""
        return self._integral

    def snapshot(self) -> dict:
        """Plain-dict controller state for reports and artifacts."""
        return {
            "n_decisions": len(self.decisions),
            "decided_by": dict(self.decided_by),
            "rail_hits": dict(self.rail_hits),
            "burst": self.burst,
            "burst_reason": self.burst_reason,
            "burst_episodes": self.burst_episodes,
            "integral": self._integral,
            "n_errors": len(self._errors),
        }
