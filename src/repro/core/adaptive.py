"""Online adaptive LoadDynamics (paper Section V, "Online Adaptive Modeling").

The paper notes that LoadDynamics "may experience high prediction errors
if the workload completely changes to a new pattern that is not
represented by any of the training data", and proposes — as future work —
detecting such drift and adaptively re-running the optimization.  This
module implements that variant:

* the wrapped predictor serves one-step-ahead forecasts like any other
  :class:`~repro.baselines.base.Predictor`;
* each revealed interval scores the previous forecast; a rolling window
  of absolute percentage errors is compared against the predictor's own
  cross-validation MAPE;
* when the rolling error exceeds ``drift_factor`` x the reference error
  for a full window (and a cool-down has elapsed), the complete Fig. 6
  workflow re-runs on the recent history and the new predictor replaces
  the old one.

The re-optimization is synchronous and uses the same budget as the
initial fit, so pick reduced/tiny settings for online use.

Drift-detector integration: pass ``refit_on_drift=`` a
:class:`~repro.obs.monitor.drift.DriftDetector` (CUSUM, Page-Hinkley)
and the detector *replaces* the built-in threshold rule — each scored
interval's percentage error feeds the detector, and a latched
``drifted`` flag (whether raised by this predictor's own errors or by
an external :class:`~repro.obs.monitor.monitor.ForecastMonitor` sharing
the instance) triggers the refit.  The refit resets the detector so it
recalibrates on post-refit errors.  With ``refit_on_drift=None`` (the
default) the original rolling-window rule runs unchanged.

Serving hardening: a refit is an expensive, failure-prone training run
executed *inside* the serving loop, so it must never take serving down.
Each refit runs through a :class:`~repro.resilience.retry.RetryPolicy`
(fresh seed per attempt) under an optional wall-clock deadline; if every
attempt fails — or a successful one lands past the deadline while an
incumbent exists — the incumbent predictor keeps serving, the refit
cool-down applies (so a poisoned history does not retrain every
interval), and an ``adaptive.refit_failed`` event plus counter record
the degradation.  The ``adaptive.refit`` fault site makes this path
chaos-testable.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from repro import state as _state
from repro.baselines.base import Predictor, split_target
from repro.bayesopt.space import SearchSpace
from repro.core.config import FrameworkSettings, search_space_for
from repro.core.framework import LoadDynamics
from repro.core.predictor import LoadDynamicsPredictor
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.resilience import faults as _faults
from repro.resilience.retry import RetryPolicy

__all__ = ["AdaptiveLoadDynamics"]

logger = get_logger("core.adaptive")


def _load_model(raw, owner):
    return LoadDynamicsPredictor.load(raw) if raw else _state.KEEP


class AdaptiveLoadDynamics(Predictor, _state.Persistent):
    """Self-retraining LoadDynamics wrapper.

    Parameters
    ----------
    space / settings / trace_name / budget:
        Passed through to :class:`LoadDynamics` for every (re)fit.
    drift_window:
        Number of recent intervals whose mean error triggers detection.
    drift_factor:
        Retrain when rolling MAPE > factor x max(validation MAPE, error_floor).
    error_floor:
        Lower bound on the reference error so a near-perfect validation
        fit does not make the detector hair-triggered (in percent).
    min_refit_gap:
        Cool-down (intervals) between retrainings.
    max_history:
        Cap on the history used for retraining (most recent kept); the
        point of retraining is adapting to the *new* pattern.
    refit_retries:
        Extra refit attempts (fresh framework seed each) when the
        synchronous retrain raises; the incumbent predictor keeps
        serving throughout.
    refit_deadline_s:
        Wall-clock budget for one drift refit (all attempts); a refit
        finishing past it is discarded in favour of the incumbent.
        ``None`` disables the deadline.
    refit_on_drift:
        A drift detector (anything matching
        :class:`repro.obs.monitor.drift.DriftDetector`) that replaces
        the rolling-window rule: scored errors feed it, its latched
        ``drifted`` flag triggers the refit, and the refit resets it.
    target_channel:
        Which column of a 2-D ``(steps, D)`` history is forecast (and
        scored for drift); must stay 0 for univariate histories.
    """

    name = "adaptive-loaddynamics"

    #: Persisted refit bookkeeping (:mod:`repro.state`), with the values
    #: a new series resets it to.  The fitted incumbent predictor is a
    #: model artifact, not bookkeeping: ``has_model`` records whether
    #: one existed, and ``model_dir`` (see :meth:`state_dict`) where it
    #: was saved for a load to restore it from.
    _STATE = (
        # history lengths at each (re)fit
        ("refit_history", "refit_history", _state.listed(_state.INT), []),
        # refits that kept the incumbent predictor
        ("failed_refits", "failed_refits", _state.INT, 0),
        # refit attempts triggered by drift detection
        ("drift_refits", "drift_refits", _state.INT, 0),
        ("recent_errors", "_recent_errors",
         _state.window(_state.FLOAT, "drift_window", maxlen=True), []),
        ("last_pred", "_last_pred", _state.optional(_state.FLOAT), None),
        ("last_len", "_last_len", _state.INT, -1),
        ("since_refit", "_since_refit", _state.INT, 0),
        # best validation MAPE over all fits
        ("best_val_mape", "_best_val_mape",
         _state.Codec(float, _state.FLOAT.decode), math.inf),
        ("has_model", "predictor",
         _state.Codec(lambda p: p is not None, lambda raw, owner: _state.KEEP)),
        ("model_dir", "predictor", _state.Codec(lambda p: None, _load_model)),
        ("drift_detector", "refit_on_drift", _state.OPTIONAL_CHILD),
    )

    def __init__(
        self,
        space: SearchSpace | None = None,
        settings: FrameworkSettings | None = None,
        trace_name: str = "default",
        budget: str = "reduced",
        drift_window: int = 10,
        drift_factor: float = 2.0,
        error_floor: float = 5.0,
        min_refit_gap: int = 20,
        max_history: int | None = 600,
        refit_retries: int = 1,
        refit_deadline_s: float | None = None,
        refit_on_drift=None,
        target_channel: int = 0,
    ):
        if drift_window < 2:
            raise ValueError("drift_window must be >= 2")
        if drift_factor <= 1.0:
            raise ValueError("drift_factor must be > 1")
        if min_refit_gap < 1:
            raise ValueError("min_refit_gap must be >= 1")
        if refit_deadline_s is not None and refit_deadline_s <= 0:
            raise ValueError("refit_deadline_s must be positive (or None)")
        self._space = space if space is not None else search_space_for(trace_name, budget)
        self._settings = settings if settings is not None else FrameworkSettings.reduced()
        self.drift_window = int(drift_window)
        self.drift_factor = float(drift_factor)
        self.error_floor = float(error_floor)
        self.min_refit_gap = int(min_refit_gap)
        self.max_history = max_history
        self.refit_policy = RetryPolicy(max_retries=int(refit_retries))
        self.refit_deadline_s = refit_deadline_s
        self.refit_on_drift = refit_on_drift
        if target_channel < 0:
            raise ValueError("target_channel must be non-negative")
        self.target_channel = int(target_channel)

        self.predictor: LoadDynamicsPredictor | None = None
        _state.reset(self)

    # ------------------------------------------------------------------
    @property
    def n_refits(self) -> int:
        """Total (re)fits performed, including the initial one."""
        return len(self.refit_history)

    @property
    def drift_latch(self):
        """The shared drift detector, or ``None`` without one.

        Hand this to ``HybridController(drift_detector=...)`` and one
        latched detector drives both halves of the recovery story: this
        wrapper refits the model while the controller's burst mode
        provisions defensively until forecasts are healthy again.  Both
        consumers reset the detector when their recovery completes
        (refit installed here; burst cleared there) — the
        :class:`~repro.obs.monitor.drift.DriftDetectorBase` reset
        contract makes that safe from either side.
        """
        return self.refit_on_drift

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state_dict(self, *, model_dir=None) -> dict:
        """JSON-serializable refit bookkeeping for crash-safe resume.

        Pass ``model_dir`` to persist the incumbent predictor alongside
        via :meth:`~repro.core.predictor.LoadDynamicsPredictor.save`; the
        state then records the directory a load reloads it from.
        Without it, loading restores the bookkeeping around whatever
        predictor the instance currently holds.
        """
        out = super().state_dict()
        if model_dir is not None and self.predictor is not None:
            out["model_dir"] = str(self.predictor.save(model_dir))
        return out

    def _loaded(self, state: dict) -> None:
        if state["has_model"] and self.predictor is None:
            logger.warning(
                "restored adaptive bookkeeping records a fitted incumbent, "
                "but no model_dir was saved and none is loaded — the next "
                "fit() call will train a fresh predictor"
            )

    def _min_series_length(self) -> int:
        cfg = self._settings
        # Enough for a 60/20/20 split with some training windows.
        return max(int(np.ceil(4.0 / min(cfg.train_frac, cfg.val_frac))), 30)

    def _reference_error(self) -> float:
        """Healthy-error baseline for drift detection.

        Uses the *best* validation MAPE achieved by any (re)fit so far,
        not the current predictor's: right after a drift the retrain
        window still contains mostly-stale data, so the fresh model may
        validate terribly — if that inflated the reference, detection
        would freeze and the predictor would never recover.  Anchoring
        to the best-ever error keeps retraining until a fit becomes
        healthy again.
        """
        val = self._best_val_mape
        if not np.isfinite(val):
            val = self.error_floor
        return max(val, self.error_floor)

    def drift_detected(self) -> bool:
        """True when the error stream signals a pattern change.

        With a ``refit_on_drift`` detector installed, its latched flag
        is the signal; otherwise the original rolling-window threshold
        rule applies.
        """
        if self.refit_on_drift is not None:
            return bool(self.refit_on_drift.drifted)
        if len(self._recent_errors) < self.drift_window:
            return False
        return float(np.mean(self._recent_errors)) > self.drift_factor * self._reference_error()

    # ------------------------------------------------------------------
    def _refit(self, history: np.ndarray) -> bool:
        """Retrain through the retry policy; never raises (except crashes).

        Returns ``True`` when a fresh predictor was installed.  On
        failure or a blown deadline the incumbent keeps serving and the
        cool-down applies, so the serving loop survives a poisoned
        retrain window.
        """
        h = history
        if self.max_history is not None and len(h) > self.max_history:
            h = h[-self.max_history :]
        t0 = time.perf_counter()
        base_seed = self._settings.seed
        last_error: str | None = None
        for attempt in range(self.refit_policy.attempts):
            settings = self._settings
            if attempt:
                settings = replace(
                    settings, seed=self.refit_policy.seed_for(base_seed, attempt)
                )
            inj = _faults.active()
            try:
                if inj is not None:
                    inj.maybe_fire("adaptive.refit")
                ld = LoadDynamics(space=self._space, settings=settings)
                predictor, _report = ld.fit(
                    h, target_channel=self.target_channel if np.ndim(h) == 2 else 0
                )
            except _faults.SimulatedCrash:
                raise
            except Exception as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                logger.warning(
                    "adaptive refit attempt %d/%d failed: %s",
                    attempt + 1, self.refit_policy.attempts, last_error,
                )
                elapsed = time.perf_counter() - t0
                if self.refit_deadline_s is not None and elapsed > self.refit_deadline_s:
                    self._refit_failed("deadline_after_error", elapsed)
                    return False
                continue
            elapsed = time.perf_counter() - t0
            if (
                self.refit_deadline_s is not None
                and elapsed > self.refit_deadline_s
                and self.predictor is not None
            ):
                # The retrain beat nothing: it finished after the serving
                # budget while an incumbent was available the whole time.
                self._refit_failed("deadline", elapsed)
                return False
            self.predictor = predictor
            self.refit_history.append(len(history))
            if np.isfinite(self.predictor.validation_mape):
                self._best_val_mape = min(
                    self._best_val_mape, self.predictor.validation_mape
                )
            self._recent_errors.clear()
            self._since_refit = 0
            if self.refit_on_drift is not None:
                self.refit_on_drift.reset()
            return True
        self._refit_failed(last_error or "unknown", time.perf_counter() - t0)
        return False

    def _refit_failed(self, reason: str, elapsed_s: float) -> None:
        """Record a degraded refit: incumbent keeps serving, cool-down applies."""
        self.failed_refits += 1
        self._recent_errors.clear()
        self._since_refit = 0
        if self.refit_on_drift is not None:
            self.refit_on_drift.reset()
        _metrics.counter("adaptive.refit_failed").inc()
        logger.error(
            "adaptive refit failed after %.2fs (%s); serving %s",
            elapsed_s, reason,
            "incumbent predictor" if self.predictor is not None
            else "last-value fallback",
        )
        if _events.enabled():
            _events.emit(
                "adaptive.refit_failed",
                reason=reason,
                elapsed_s=elapsed_s,
                has_incumbent=self.predictor is not None,
                n_failed=self.failed_refits,
            )

    def fit(self, history: np.ndarray) -> "AdaptiveLoadDynamics":
        h, target = split_target(self, history)
        n = int(h.shape[0])
        if n < self._last_len:
            # New series: start over.
            self.predictor = None
            _state.reset(self)
            if self.refit_on_drift is not None:
                self.refit_on_drift.reset()

        # Score the cached forecast against every newly revealed value
        # (the target channel's value, for a multivariate history).
        if self.predictor is not None and self._last_pred is not None and n > self._last_len >= 0:
            actual = float(target[self._last_len])
            denom = max(abs(actual), 1e-9)
            err = 100.0 * abs(self._last_pred - actual) / denom
            self._recent_errors.append(err)
            if self.refit_on_drift is not None:
                self.refit_on_drift.update(err)
        self._since_refit += max(n - max(self._last_len, 0), 0)
        self._last_len = n

        if self.predictor is None:
            # After a *failed* initial fit the cool-down applies here too —
            # otherwise a poisoned history would retrain every interval.
            if n >= self._min_series_length() and (
                self.failed_refits == 0 or self._since_refit >= self.min_refit_gap
            ):
                self._refit(h)
        elif self.drift_detected() and self._since_refit >= self.min_refit_gap:
            self.drift_refits += 1
            _metrics.counter("adaptive.drift_refit").inc()
            if _events.enabled():
                _events.emit(
                    "adaptive.drift_refit",
                    history_len=n,
                    detector=(
                        getattr(self.refit_on_drift, "name", None)
                        if self.refit_on_drift is not None else "window_rule"
                    ),
                )
            self._refit(h)

        self._last_pred = (
            self.predictor.predict_next(h) if self.predictor is not None else None
        )
        return self

    def predict_next(self, history: np.ndarray) -> float:
        h, target = split_target(self, history)
        if self.predictor is None or self._last_len != int(h.shape[0]) or self._last_pred is None:
            self.fit(h)
        if self._last_pred is None:
            return self._fallback(target)
        return float(self._last_pred)
