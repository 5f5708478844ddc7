"""Guarded serving: output validation, fallback chain, corrupt-model shield.

:class:`GuardedPredictor` wraps any predictor — a tuned
:class:`~repro.core.predictor.LoadDynamicsPredictor`, the adaptive
variant, or any baseline — for online use in front of the autoscaler:

* **output validation** — a non-finite forecast is a fault (counted,
  never served); finite forecasts are clamped into
  ``[0, guard_factor x rolling max]`` so a model that momentarily
  explodes cannot order a thousand VMs;
* **fallback chain** — tuned model → seasonal-naive baseline →
  last-value persistence; the first stage that produces a valid value
  serves it, with per-stage ``serving.fallback.*`` counters;
* **circuit breaker** — repeated primary failures open a
  :class:`~repro.serving.breaker.CircuitBreaker`, shedding the model
  (fallback serves directly) until probation probes pass;
* **corrupt-model shield** — :meth:`GuardedPredictor.load` turns any
  unreadable/truncated predictor directory into a typed
  :class:`CorruptModelError`, or (``on_corrupt="fallback"``) into a
  guarded predictor that serves from the fallback chain alone.

Zero-overhead guarantee: on a healthy model and in-range forecast the
served value is *bit-for-bit* the primary's own output — validation
uses comparisons only, never arithmetic (regression-tested in
``tests/test_serving_guard.py``).  That is also why
:meth:`GuardedPredictor.serve_block` may check and book a whole block
of precomputed forecasts in one array pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro import state as _state
from repro.baselines.base import Predictor, split_target
from repro.baselines.naive import LastValuePredictor, SeasonalNaivePredictor
from repro.nn.serialization import CorruptModelError
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.resilience import faults as _faults
from repro.serving.breaker import CLOSED, CircuitBreaker

__all__ = ["GuardedPredictor", "default_fallbacks"]

logger = get_logger("serving.guard")


def default_fallbacks(period: int | None = None) -> list[Predictor]:
    """The standard fallback chain: seasonal-naive (if periodic) → last value.

    ``period`` is the season length in intervals (e.g. ``1440 //
    interval_minutes`` for a daily cycle); ``None`` or ``< 2`` drops the
    seasonal stage.
    """
    chain: list[Predictor] = []
    if period is not None and period >= 2:
        chain.append(SeasonalNaivePredictor(period))
    chain.append(LastValuePredictor())
    return chain


def _rolling_max(x: np.ndarray, window: int) -> np.ndarray:
    """``x[j : j + window].max()`` for every ``j``, by doubling: after
    the loop ``m[i]`` is the max of ``x[i : i + span]``, and two spans
    that overlap cover each window."""
    if x.shape[0] == window:
        return x.max(keepdims=True)
    m, span = x, 1
    while 2 * span <= window:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    n = x.shape[0] - window + 1
    return np.maximum(m[:n], m[window - span : window - span + n])


class GuardedPredictor(Predictor, _state.Persistent):
    """Wrap a predictor with validation, a fallback chain, and a breaker.

    Parameters
    ----------
    primary:
        The tuned model being guarded; ``None`` serves from the fallback
        chain alone (the corrupt-model degradation mode).
    fallbacks:
        Ordered stand-in predictors; defaults to
        :func:`default_fallbacks` (last-value persistence only, since
        the seasonal period is workload-specific).
    guard_factor:
        Forecasts are clamped to ``guard_factor`` times the rolling
        maximum of the recent history — the sanity ceiling between the
        model and the provisioning policy.
    rolling_window:
        How much recent history feeds the rolling maximum.
    breaker:
        A configured :class:`CircuitBreaker`, or ``None`` for defaults.
    """

    #: Persisted state (:mod:`repro.state`): the per-stage serve counts,
    #: the latched drift shift, the breaker, and — when the primary
    #: itself carries state (e.g.
    #: :class:`~repro.core.adaptive.AdaptiveLoadDynamics`) — the
    #: primary's.  Frozen models and the stateless baseline fallbacks
    #: carry no mutable serving state.
    _STATE = (
        ("served_by", "served_by", _state.COUNTS),
        ("drift_shift", "_drift_shift", _state.optional(_state.FLOAT)),
        ("breaker", "breaker", _state.CHILD),
        ("primary", "primary", _state.OPTIONAL_CHILD),
    )

    def __init__(
        self,
        primary: Predictor | None,
        fallbacks: list[Predictor] | tuple[Predictor, ...] | None = None,
        guard_factor: float = 10.0,
        rolling_window: int = 256,
        breaker: CircuitBreaker | None = None,
    ):
        if guard_factor <= 0:
            raise ValueError("guard_factor must be positive")
        if rolling_window < 1:
            raise ValueError("rolling_window must be >= 1")
        self.primary = primary
        self.fallbacks = list(fallbacks) if fallbacks is not None else default_fallbacks()
        self.guard_factor = float(guard_factor)
        self.rolling_window = int(rolling_window)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        base = primary.name if primary is not None else "none"
        self.name = f"guarded[{base}]"
        self.min_history = getattr(primary, "min_history", 1) if primary else 1
        #: Which column of a 2-D history is the forecast target; the
        #: bound, fallbacks, and rescue all work on that channel while a
        #: multivariate primary sees the full (steps, D) history.
        self.target_channel = int(getattr(primary, "target_channel", 0) or 0)
        #: Serve counts per stage: "primary", each fallback's name, "zero".
        self.served_by: dict[str, int] = {}
        #: Latched ``drift@serve.predict`` level shift: once the fault
        #: fires, every later primary forecast is scaled by this factor
        #: (a drift, once it happens, persists — that is what the drift
        #: detectors downstream must catch).
        self._drift_shift: float | None = None

        # Hot-path metric handles resolved once, not per prediction.
        self._c_total = _metrics.counter("serving.predictions")
        self._c_nonfinite = _metrics.counter("serving.fault.nonfinite")
        self._c_exception = _metrics.counter("serving.fault.exception")
        self._c_clamped = _metrics.counter("serving.clamped")
        self._c_shed = _metrics.counter("serving.breaker.short_circuit")

    # ------------------------------------------------------------------
    def _bounds(self, target: np.ndarray, first: int, window: int) -> list[float]:
        """Sanity ceilings for the histories ``target[:e]``, ``e`` from
        ``first`` to ``len(target)``: ``guard_factor`` x the largest
        finite value among the last ``window`` entries (a negative peak
        counts as 0), or ``inf`` when none of them is finite."""
        lo = max(first - window, 0)
        x = target[lo:]
        # A sum is finite only if every entry is (one that overflows
        # just takes the masking path).
        if not math.isfinite(x.sum()):
            x = np.where(np.isfinite(x), x, -math.inf)
        short = window - (first - lo)
        if short:
            x = np.concatenate((np.full(short, -math.inf), x))
        factor = self.guard_factor
        return [
            math.inf if p == -math.inf else factor * max(p, 0.0)
            for p in _rolling_max(x, window).tolist()
        ]

    def _bound(self, h: np.ndarray) -> float:
        """Sanity ceiling for a forecast from the target history ``h``."""
        return self._bounds(h, h.shape[0], self.rolling_window)[0]

    def _served(self, stage: str) -> None:
        self.served_by[stage] = self.served_by.get(stage, 0) + 1

    def _validate(self, raw: float, bound: float, stage: str) -> float | None:
        """Return the servable value, or ``None`` when the stage faulted.

        Comparisons only on the happy path: an in-range forecast is
        returned exactly as produced (bit-for-bit).
        """
        value = float(raw)
        if not math.isfinite(value):
            self._c_nonfinite.inc()
            if _events.enabled():
                _events.emit("serving.fault", stage=stage, kind="nonfinite")
            return None
        if value < 0.0:
            self._c_clamped.inc()
            return 0.0
        if value > bound:
            self._c_clamped.inc()
            if _events.enabled():
                _events.emit(
                    "serving.fault", stage=stage, kind="clamped",
                    value=value, bound=bound,
                )
            return bound
        return value

    def _try_primary(
        self, h: np.ndarray, bound: float, raw: float | None
    ) -> float | None:
        if self.primary is None:
            return None
        if not self.breaker.allow():
            self._c_shed.inc()
            return None
        inj = _faults.active()
        try:
            fired = inj.maybe_fire("serve.predict") if inj is not None else {}
            if raw is None:
                raw = self.primary.predict_next(h)
            if "nan" in fired:
                raw = float("nan")
            if "drift" in fired:
                spec = fired["drift"]
                self._drift_shift = spec.arg if spec.arg is not None else 2.0
            if self._drift_shift is not None:
                raw = float(raw) * self._drift_shift
        except _faults.SimulatedCrash:
            raise
        except Exception as exc:
            self._c_exception.inc()
            self.breaker.record_failure()
            logger.warning("primary predictor %s failed: %s", self.primary.name, exc)
            if _events.enabled():
                _events.emit(
                    "serving.fault", stage="primary", kind="exception",
                    error=type(exc).__name__,
                )
            return None
        value = self._validate(raw, bound, "primary")
        if value is None:
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return value

    # ------------------------------------------------------------------
    # Predictor protocol
    # ------------------------------------------------------------------
    def fit(self, history: np.ndarray) -> "GuardedPredictor":
        """Guarded refit: a failing primary fit keeps the stale model."""
        h, tgt = split_target(self, history)
        if self.primary is not None:
            try:
                self.primary.fit(h)
            except _faults.SimulatedCrash:
                raise
            except Exception as exc:
                _metrics.counter("serving.fault.fit_exception").inc()
                logger.warning(
                    "primary predictor %s fit failed (serving stale state): %s",
                    self.primary.name, exc,
                )
        for fb in self.fallbacks:
            try:
                fb.fit(tgt)
            except Exception:  # fallbacks must never take serving down
                logger.warning("fallback %s fit failed", fb.name)
        return self

    def predict_next(
        self, history: np.ndarray, raw: float | None = None
    ) -> float:
        """Always returns a finite value in ``[0, guard_factor x rolling max]``.

        A 2-D ``(steps, D)`` history feeds the primary whole; the
        rolling-max bound and the (univariate) fallback chain see the
        target channel.

        ``raw`` is the primary's forecast for this history when the
        caller already has it (the streaming server computes a chunk's
        forecasts in one batched ``predict_series`` pass).  It replaces
        only the primary call: the ``serve.predict`` fault site,
        validation, breaker and fallback chain run exactly as without
        it, and an open breaker sheds the interval unused.
        """
        h, tgt = split_target(self, history)
        bound = self._bound(tgt)
        self._c_total.inc()

        value = self._try_primary(h, bound, raw)
        if value is not None:
            self._served("primary")
            return value

        for fb in self.fallbacks:
            try:
                raw = fb.predict_next(tgt)
            except _faults.SimulatedCrash:
                raise
            except Exception:
                continue
            value = self._validate(raw, bound, fb.name)
            if value is not None:
                self._served(fb.name)
                _metrics.counter(f"serving.fallback.{fb.name}").inc()
                if _events.enabled():
                    _events.emit("serving.fallback", stage=fb.name)
                return value

        # Terminal answer when even persistence has nothing finite.
        self._served("zero")
        _metrics.counter("serving.fallback.zero").inc()
        return 0.0

    def serve_block(
        self,
        raws: np.ndarray,
        target: np.ndarray,
        first: int,
        history_window: int,
    ) -> str | None:
        """Serve a block of the primary's precomputed forecasts in one pass.

        ``raws[j]`` is the primary's forecast from the history whose
        target channel is ``target[:first + j]``, of which the caller
        keeps at most the last ``history_window`` entries.  When
        :meth:`predict_next` would serve every one of them unchanged —
        a primary, no fault injector, a closed breaker, no latched drift
        shift, each raw finite and inside ``[0, bound]`` — the block is
        booked as those calls book it (the primary's serve count,
        ``serving.predictions``, one breaker success each), the raws
        stand as the served forecasts, and ``None`` is returned.

        Otherwise nothing is booked and the reason is returned:
        ``"no_primary"``, ``"faults"``, ``"breaker"``, ``"drift"``,
        ``"nonfinite"``, ``"negative"`` or ``"above_bound"``; the caller
        then serves the block with :meth:`predict_next` per interval.
        The pass is exact because, with none of those, ``predict_next``
        only compares, emits no event, finds ``allow()`` true and
        appends successes to the breaker's window.
        """
        if self.primary is None:
            return "no_primary"
        if _faults.active() is not None:
            return "faults"
        if self.breaker.state != CLOSED:
            return "breaker"
        if self._drift_shift is not None:
            return "drift"
        if not np.isfinite(raws).all():
            return "nonfinite"
        if (raws < 0.0).any():
            return "negative"
        m = raws.shape[0]
        window = min(self.rolling_window, history_window)
        if (raws > self._bounds(target[: first + m - 1], first, window)).any():
            return "above_bound"
        self._c_total.inc(m)
        self.served_by["primary"] = self.served_by.get("primary", 0) + m
        self.breaker.record_success(m)
        return None

    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        directory: str | Path,
        *,
        on_corrupt: str = "raise",
        **kwargs,
    ) -> "GuardedPredictor":
        """Load a saved predictor directory behind the guard.

        Any failure to reconstruct the model — truncated
        ``predictor.json``, corrupted weight files, injected
        ``corrupt@model.load`` faults — surfaces as one typed
        :class:`~repro.nn.serialization.CorruptModelError` carrying
        ``directory`` (``on_corrupt="raise"``) instead of the JSON,
        zipfile and OS errors underneath, or degrades
        to a guarded predictor without a primary
        (``on_corrupt="fallback"``), which serves from the fallback
        chain.  Extra ``kwargs`` go to the constructor.
        """
        if on_corrupt not in ("raise", "fallback"):
            raise ValueError("on_corrupt must be 'raise' or 'fallback'")
        from repro.core.predictor import LoadDynamicsPredictor

        try:
            primary: Predictor | None = LoadDynamicsPredictor.load(directory)
        except _faults.SimulatedCrash:
            raise
        except Exception as exc:
            err = CorruptModelError(
                f"cannot load predictor from {directory}: "
                f"{type(exc).__name__}: {exc}",
                directory=directory,
            )
            if on_corrupt == "raise":
                raise err from exc
            logger.error("%s — serving from the fallback chain", err)
            _metrics.counter("serving.corrupt_model").inc()
            if _events.enabled():
                _events.emit(
                    "serving.corrupt_model",
                    directory=str(directory),
                    error=type(exc).__name__,
                )
            primary = None
        return cls(primary, **kwargs)
