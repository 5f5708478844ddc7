"""Trial-evaluation stage: Fig. 6 steps 1–2 for any model family.

One trial = build a candidate model for a suggested config, train it on
the windowed training split, and score it on the cross-validation split
(MAPE in raw JAR units).  The evaluator is family-agnostic: everything
model-specific is behind the :class:`~repro.models.base.ModelFamily`
hooks (``build``/``train``), while the resilience semantics live here,
identically for every family —

* feasibility guards (enough training windows, non-empty validation);
* retry-with-reseed and epoch/patience backoff on divergence
  (:class:`~repro.resilience.retry.RetryPolicy`);
* per-trial deadlines (``trial_timeout`` infeasibility, not a stall);
* infeasibility metadata the quarantine and telemetry consume.

For the default ``lstm`` family this stage is operation-for-operation
identical to the pre-refactor ``LoadDynamics._train_and_validate``, so
seeded fits stay bit-for-bit reproducible (see
``tests/test_equivalence.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cache import WindowCache
from repro.core.constants import INFEASIBLE_PENALTY
from repro.core.scaling import MinMaxScaler
from repro.metrics import mape
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.resilience.retry import (
    DeadlineCallback,
    EpochCounter,
    RetryPolicy,
    TrialTimeout,
)

logger = get_logger("core.evaluation")

__all__ = ["TrialEvaluator"]


def _validation_forecast(model, history, X_val: np.ndarray) -> np.ndarray:
    """The trained model's scaled forecast of the validation windows.

    An :class:`~repro.nn.network.LSTMRegressor` fit keeps the forecast
    its best epoch made of these very windows with the weights it then
    restored, so that forecast is reused: predicting again would
    recompute the same bits.  A fit in which no epoch improved, a fit
    validated on other windows, and a family that returns no history
    predict.
    """
    kept = getattr(history, "best_val_pred", None)
    if kept is not None and getattr(history, "val_inputs", None) is X_val:
        return kept
    return model.predict(X_val)


class TrialEvaluator:
    """Family-agnostic train+validate objective for one search.

    Instances are picklable (family objects and settings are plain
    data), so the parallel search driver can ship the evaluator to
    worker processes.
    """

    def __init__(self, family, settings):
        self.family = family
        self.settings = settings

    # ------------------------------------------------------------------
    def evaluate(
        self,
        scaled: np.ndarray,
        raw: np.ndarray,
        scaler: MinMaxScaler,
        config: dict,
        i_train_end: int,
        i_val_end: int,
        window_cache: WindowCache | None = None,
        target_channel: int = 0,
    ) -> tuple[float, object | None, dict]:
        """Evaluate one hyperparameter set.

        Returns ``(validation_mape, model, metadata)``; the metadata
        dict records training wall-clock, epochs run, and the
        early-stop flag (or the infeasibility reason) and ends up on
        the trial's :class:`~repro.bayesopt.optimizer.TrialRecord`.
        ``model`` is ``None`` for infeasible trials.

        A 2-D ``(N, D)`` scaled series trains on (N, n, D) window
        tensors predicting ``target_channel``; validation MAPE is then
        computed in the target channel's raw units.
        """
        cfg = self.settings
        n = int(config["history_len"])

        def infeasible(reason: str, **extra) -> tuple[float, None, dict]:
            meta = {"infeasible": True, "reason": reason}
            meta.update(extra)
            return INFEASIBLE_PENALTY, None, meta

        # Feasibility: the training split must yield enough windows.
        if i_train_end - n < cfg.min_train_windows:
            return infeasible("too_few_train_windows")
        if window_cache is None:
            window_cache = WindowCache(
                scaled, i_train_end, i_val_end, cfg.max_train_windows,
                target_channel=target_channel,
            )
        X_train, y_train, X_val, y_val_scaled = window_cache.get(n)
        if X_val.shape[0] < 1:
            return infeasible("empty_validation_window")
        # Univariate fits keep the three-argument ``build`` call, which
        # families written without channel support implement.
        n_channels = window_cache.n_channels
        channels = (
            {} if n_channels == 1
            else {"n_channels": n_channels, "target_channel": target_channel}
        )

        # A diverged training is retried with a fresh weight seed and
        # backed-off epochs/patience (bounded); a timed-out one is not —
        # retrying a slow config would just burn the budget twice.
        policy = RetryPolicy(max_retries=cfg.max_retries, backoff=cfg.retry_backoff)
        last_failure: dict = {}
        t_train = time.perf_counter()
        for attempt in range(policy.attempts):
            model = self.family.build(
                config, cfg, policy.seed_for(cfg.seed, attempt), **channels
            )
            epoch_counter = EpochCounter()
            callbacks: list = [epoch_counter]
            if cfg.trial_timeout_s is not None:
                callbacks.append(DeadlineCallback(cfg.trial_timeout_s))
            try:
                history = self.family.train(
                    model,
                    X_train,
                    y_train,
                    X_val,
                    y_val_scaled,
                    config,
                    cfg,
                    epochs=policy.epochs_for(cfg.epochs, attempt),
                    patience=policy.patience_for(cfg.patience, attempt),
                    callbacks=callbacks,
                )
            except TrialTimeout as exc:
                return infeasible(
                    "trial_timeout",
                    failing_epoch=exc.epoch,
                    elapsed_s=exc.elapsed_s,
                    attempts=attempt + 1,
                )
            except (FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
                last_failure = {
                    "failing_epoch": epoch_counter.completed,
                    "error": type(exc).__name__,
                }
                self._note_retry(config, attempt, policy, last_failure)
                continue
            if history is not None:
                bad_epochs = np.flatnonzero(~np.isfinite(history.train_loss))
                if bad_epochs.size:
                    last_failure = {
                        "failing_epoch": int(bad_epochs[0]),
                        "error": "nonfinite_train_loss",
                    }
                    self._note_retry(config, attempt, policy, last_failure)
                    continue
            break  # trained cleanly
        else:
            return infeasible(
                "training_diverged", attempts=policy.attempts, **last_failure
            )
        meta = {
            "train_seconds": time.perf_counter() - t_train,
            "epochs_run": history.epochs_run if history is not None else 0,
            "stopped_early": history.stopped_early if history is not None else False,
            "best_epoch": history.best_epoch if history is not None else -1,
            "n_train_windows": int(len(y_train)),
            "attempts": attempt + 1,
        }

        # Validation error in *raw* JAR units (MAPE is scale-sensitive),
        # inverted through the target channel's scalar map.
        out_scaler = scaler.channel(target_channel)
        pred_scaled = _validation_forecast(model, history, X_val)
        pred = np.maximum(out_scaler.inverse_transform(pred_scaled), 0.0)
        actual = out_scaler.inverse_transform(y_val_scaled)
        try:
            value = mape(pred, actual)
        except ValueError:
            return infeasible("validation_mape_undefined")
        if not np.isfinite(value):
            return infeasible("validation_mape_nonfinite")
        return value, model, meta

    # ------------------------------------------------------------------
    def _note_retry(
        self, config: dict, attempt: int, policy: RetryPolicy, failure: dict
    ) -> None:
        """Telemetry for one failed training attempt (before any retry)."""
        will_retry = attempt < policy.max_retries
        logger.log(
            20 if will_retry else 10,  # INFO while retrying, DEBUG when giving up
            "training attempt %d/%d failed (%s at epoch %s) for %s%s",
            attempt + 1,
            policy.attempts,
            failure.get("error"),
            failure.get("failing_epoch"),
            config,
            "; retrying with reseed" if will_retry else "",
        )
        if will_retry:
            _metrics.counter("trial.retries").inc()
            if _events.enabled():
                _events.emit(
                    "trial.retry", attempt=attempt + 1, config=dict(config), **failure
                )
