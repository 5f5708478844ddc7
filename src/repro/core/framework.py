"""The LoadDynamics workflow (paper Fig. 6), composed from stages.

Phases, mapped to the figure's numbered steps and to the module that
now owns each stage:

1. **Train** — build a candidate model for the suggested hyperparameter
   set and fit it on the training split (first 60% of JARs, min-max
   scaled).  Stage: :class:`~repro.core.evaluation.TrialEvaluator`,
   over the data prepared by :func:`~repro.core.data.prepare_data`.
2. **Validate** — predict every cross-validation JAR (next 20%) and
   compute the MAPE.  Stage: also :class:`TrialEvaluator` (one trial =
   train + validate).
3. **Optimize** — feed (hyperparameters, error) to Bayesian
   Optimization, which proposes the next set from the family's search
   space.  Stage: :class:`~repro.core.driver.SearchDriver`, which also
   owns journaling, quarantine, and resume.
4. **Select** — after ``maxIters`` iterations keep the lowest-error
   model as the workload's predictor ``f``.  Stage: this module's
   :meth:`LoadDynamics.fit` (the best-trial bookkeeping and the
   graceful-degradation fallback).
5. **Predict** — the returned :class:`LoadDynamicsPredictor` serves
   future JARs.

What a trial trains is pluggable: ``family`` selects a
:class:`~repro.models.base.ModelFamily` from the :mod:`repro.models`
registry (``"lstm"`` — the paper default — ``"gru"``, ``"gbr"``,
``"svr"``, ...).  The alternative optimizers discussed in Section III-A
(random and grid search) can likewise be swapped in via
``optimizer_cls`` for the ablation bench — everything else in the
workflow is shared.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.base import split_target
from repro.bayesopt.optimizer import BayesianOptimizer, TrialRecord, batch_evaluator
from repro.bayesopt.space import SearchSpace
from repro.core.cache import TrialMemo
from repro.core.config import FrameworkSettings
from repro.core.data import prepare_data
from repro.core.driver import SearchDriver
from repro.core.evaluation import TrialEvaluator
from repro.core.predictor import LoadDynamicsPredictor, NaiveLastValueModel
from repro.core.scaling import MinMaxScaler
from repro.metrics import mape
from repro.models import get_family
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.obs.tracing import span
from repro.resilience.journal import TrialJournal
from repro.resilience.retry import Quarantine

logger = get_logger("core.framework")

__all__ = ["LoadDynamics", "FitReport"]


def _evaluate_trial(
    evaluator: TrialEvaluator,
    scaled: np.ndarray,
    raw: np.ndarray,
    scaler: MinMaxScaler,
    i_train_end: int,
    i_val_end: int,
    target_channel: int,
    window_cache,
    config: dict,
):
    """One trial of the search: train and validate ``config``.

    Module-level (and with ``config`` last) so ``functools.partial``
    over the fixed arguments is the single-argument, picklable callable
    :class:`repro.parallel.WorkerPool` maps.  A serial fit shares
    the fit's window cache across trials; in worker processes
    ``window_cache`` is ``None`` (each trial builds its own windows),
    and the returned model travels back via pickle with its inference
    scratch dropped.
    """
    return evaluator.evaluate(
        scaled, raw, scaler, config, i_train_end, i_val_end,
        window_cache=window_cache, target_channel=target_channel,
    )


@dataclass
class FitReport:
    """Everything the fit produced besides the predictor itself."""

    #: Hyperparameter object of the winning trial —
    #: :class:`~repro.core.config.LSTMHyperparameters` for the recurrent
    #: families, :class:`~repro.core.config.GenericHyperparameters`
    #: otherwise.
    best_hyperparameters: object
    best_validation_mape: float
    trials: list[TrialRecord] = field(default_factory=list)
    total_seconds: float = 0.0
    n_infeasible: int = 0
    #: True when the fit could not produce a trained model and fell back
    #: to the naive last-value predictor (``degraded_reason`` says why).
    degraded: bool = False
    degraded_reason: str | None = None
    #: Trials replayed from a journal rather than trained in this run.
    n_resumed: int = 0
    #: Configs banned by the quarantine during this run.
    n_quarantined: int = 0
    #: Aggregate telemetry of the whole search (wall-clock breakdown,
    #: epoch counts, early-stop counts); see :meth:`build_telemetry`.
    telemetry: dict = field(default_factory=dict)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def trial_values(self) -> np.ndarray:
        """Validation MAPE per BO iteration (for convergence plots)."""
        return np.array([t.value for t in self.trials])

    def build_telemetry(self) -> dict:
        """Aggregate the per-trial metadata into one summary dict.

        Every trial carries its training wall-clock, epochs run, and
        early-stop flag (plus surrogate/acquisition timings for GP
        iterations), so outliers in :meth:`trial_values` can be
        explained — e.g. a high-MAPE trial that also stopped after three
        epochs simply never converged.
        """
        feasible = [t for t in self.trials if not t.metadata.get("infeasible", False)]
        out = {
            "n_trials": self.n_trials,
            "n_infeasible": self.n_infeasible,
            "total_seconds": self.total_seconds,
            "train_seconds_total": sum(
                t.metadata.get("train_seconds", 0.0) for t in self.trials
            ),
            "epochs_total": int(
                sum(t.metadata.get("epochs_run", 0) for t in self.trials)
            ),
            "n_early_stopped": sum(
                1 for t in self.trials if t.metadata.get("stopped_early", False)
            ),
            "surrogate_fit_seconds_total": sum(
                t.metadata.get("surrogate_fit_s", 0.0) for t in self.trials
            ),
            "acq_opt_seconds_total": sum(
                t.metadata.get("acq_opt_s", 0.0) for t in self.trials
            ),
            "n_retries": int(
                sum(max(0, t.metadata.get("attempts", 1) - 1) for t in self.trials)
            ),
            "n_degraded_suggests": sum(
                1 for t in self.trials if t.metadata.get("degraded_suggest", False)
            ),
            "n_resumed": self.n_resumed,
            "n_quarantined": self.n_quarantined,
            "degraded": self.degraded,
        }
        if feasible:
            out["mean_trial_train_seconds"] = out["train_seconds_total"] / len(feasible)
        return out


class LoadDynamics:
    """Self-optimized workload predictor factory.

    Parameters
    ----------
    space:
        Hyperparameter search space; defaults to the selected family's
        space for ``trace_name`` under the given ``budget`` (Table III
        for the recurrent families).
    settings:
        Workflow knobs (``maxIters``, split fractions, training loop).
    trace_name / budget:
        Convenience route to the family's
        :meth:`~repro.models.base.ModelFamily.search_space`.
    optimizer_cls:
        ``BayesianOptimizer`` (paper) or a drop-in like ``RandomSearch``/
        ``GridSearch`` for the Section III-A comparison.
    family:
        Registered :mod:`repro.models` family name (or instance) whose
        models the trials train; defaults to the paper's ``"lstm"``.
    """

    def __init__(
        self,
        space: SearchSpace | None = None,
        settings: FrameworkSettings | None = None,
        trace_name: str = "default",
        budget: str = "paper",
        optimizer_cls=BayesianOptimizer,
        optimizer_kwargs: dict | None = None,
        family: str = "lstm",
    ):
        self.family = get_family(family)
        self.space = (
            space
            if space is not None
            else self.family.search_space(trace_name, budget)
        )
        self.settings = settings if settings is not None else FrameworkSettings()
        self.optimizer_cls = optimizer_cls
        self.optimizer_kwargs = dict(optimizer_kwargs or {})

    # ------------------------------------------------------------------
    def fit(
        self,
        series: np.ndarray,
        *,
        journal: str | Path | TrialJournal | None = None,
        resume: bool = False,
        n_workers: int | None = None,
        target_channel: int = 0,
    ) -> tuple[LoadDynamicsPredictor, FitReport]:
        """Run the full Fig. 6 workflow on a JAR series.

        Returns the selected predictor and a :class:`FitReport` with the
        per-iteration trial history.

        Parameters
        ----------
        journal:
            Path (or :class:`~repro.resilience.TrialJournal`) of a
            crash-safe JSONL trial journal.  Every completed trial is
            fsynced to it before the next starts, so a crash loses at
            most the in-flight trial.
        resume:
            Replay the journal's completed trials into the optimizer
            (via ``tell``), restore its search state, and continue the
            run from where it stopped.  The resumed run is bit-for-bit
            identical to an uninterrupted one with the same seed.
        n_workers:
            ``None`` or 1 keeps the classic serial loop (bit-for-bit
            reproducible for a fixed seed).  Larger values evaluate
            candidate batches (``suggest_batch``) concurrently in
            worker processes — journaling, quarantine and resume still
            apply per completed trial, but the trial *ordering* within
            a batch follows suggestion order rather than completion
            order.  Capped by the ``REPRO_MAX_WORKERS`` environment
            variable.

        When every trial is infeasible (or the journal's best config can
        no longer be retrained), the fit *degrades* instead of raising:
        it returns a naive last-value predictor and a report flagged
        ``degraded=True``.

        A 2-D ``(N, D)`` series runs the identical workflow per-channel
        scaled, training on (N, n, D) window tensors that predict
        ``target_channel`` (which must be 0 for 1-D input).
        """
        t_start = time.perf_counter()
        cfg = self.settings
        data = prepare_data(series, cfg, target_channel=target_channel)
        s, scaled, scaler = data.raw, data.scaled, data.scaler
        i_train_end, i_val_end = data.i_train_end, data.i_val_end

        best: dict = {"mape": np.inf, "model": None, "config": None}
        n_infeasible = 0
        # Cross-trial caches (Section "perf layer"): windowed data sets
        # shared across trials with the same history length, and
        # duplicate-config memoization of recorded objectives.
        wcache = data.window_cache
        memo = TrialMemo(family=self.family.name)
        evaluator = TrialEvaluator(self.family, cfg)

        def settle(config: dict, value, model, meta: dict) -> tuple[float, dict]:
            """Fold one evaluated trial into the fit-level bookkeeping."""
            nonlocal n_infeasible
            if meta.get("cache_hit"):
                if meta.get("infeasible"):
                    n_infeasible += 1
                return value, meta
            memo.put(config, value, meta)
            if model is None:
                n_infeasible += 1
            elif value < best["mape"]:
                best.update(mape=value, model=model, config=config)
            return value, meta

        journal_obj = TrialJournal(journal) if isinstance(journal, (str, Path)) else journal
        if resume and journal_obj is None:
            raise ValueError("resume=True requires a journal path")
        header = {
            "optimizer": self.optimizer_cls.__name__,
            "seed": cfg.seed,
            "max_iters": cfg.max_iters,
            "family": self.family.name,
            "space": [repr(p) for p in self.space.params],
        }

        with span(
            "loaddynamics.fit", n_intervals=data.n_intervals, max_iters=cfg.max_iters
        ) as root:
            optimizer = self._make_optimizer()
            quarantine = (
                Quarantine(cfg.quarantine_after) if cfg.quarantine_after else None
            )
            if quarantine is not None and hasattr(optimizer, "set_excluded"):
                optimizer.set_excluded(quarantine.is_quarantined)
            driver = SearchDriver(optimizer, journal_obj, quarantine)

            n_replayed = 0
            if resume:
                n_replayed, n_replayed_infeasible = driver.replay(header, best, memo)
                n_infeasible += n_replayed_infeasible
            try:
                if journal_obj is not None:
                    if resume:
                        journal_obj.reopen()
                    else:
                        journal_obj.start(header)
                from repro.parallel import effective_workers

                workers = 1 if n_workers is None else effective_workers(n_workers)
                if n_workers is not None:
                    # Record the clamp even when it forces the serial loop,
                    # where the worker pool (which normally sets these)
                    # is never reached.
                    _metrics.gauge("parallel.workers_requested").set(
                        float(n_workers)
                    )
                    _metrics.gauge("parallel.workers_effective").set(
                        float(workers)
                    )
                trial = functools.partial(
                    _evaluate_trial,
                    evaluator,
                    scaled,
                    s,
                    scaler,
                    i_train_end,
                    i_val_end,
                    target_channel,
                    wcache if workers <= 1 else None,
                )
                with batch_evaluator(trial, workers) as evaluate:
                    driver.run(
                        evaluate, settle, memo, cfg.max_iters - n_replayed,
                        workers,
                    )
            finally:
                if journal_obj is not None:
                    journal_obj.close()
            root.set("n_trials", len(optimizer.history))
            root.set("n_infeasible", n_infeasible)
            if best["model"] is not None:
                root.set("best_validation_mape", float(best["mape"]))

        degraded_reason = None
        if best["model"] is None and best["config"] is not None:
            # The best trial is known only from the replayed journal; one
            # deterministic retraining (same config, same seed, same data)
            # reconstructs its model.
            logger.info("retraining journal-best config %s", best["config"])
            _value, model, _meta = evaluator.evaluate(
                scaled, s, scaler, best["config"], i_train_end, i_val_end,
                window_cache=wcache, target_channel=target_channel,
            )
            if model is not None:
                best["model"] = model
            else:
                degraded_reason = "best_retrain_failed"

        n_quarantined = len(quarantine) if quarantine is not None else 0
        if best["model"] is None:
            degraded_reason = degraded_reason or "no_feasible_trials"
            return self._degraded_result(
                s,
                scaler,
                optimizer,
                n_infeasible,
                n_replayed,
                n_quarantined,
                degraded_reason,
                t_start,
                root,
                i_train_end,
                i_val_end,
                target_channel,
            )

        hp = self.family.hyperparameters(best["config"])
        predictor = self.family.wrap_predictor(
            best["model"], scaler, best["config"], best["mape"],
            target_channel=target_channel,
        )
        report = FitReport(
            best_hyperparameters=hp,
            best_validation_mape=best["mape"],
            trials=list(optimizer.history),
            total_seconds=time.perf_counter() - t_start,
            n_infeasible=n_infeasible,
            n_resumed=n_replayed,
            n_quarantined=n_quarantined,
        )
        report.telemetry = report.build_telemetry()
        report.telemetry["fit_span_seconds"] = root.duration_s
        logger.info(
            "fit done: %d trials (%d infeasible), best MAPE %.2f%% in %.1fs",
            report.n_trials, n_infeasible, best["mape"], report.total_seconds,
        )
        return predictor, report

    # ------------------------------------------------------------------
    def _degraded_result(
        self,
        s: np.ndarray,
        scaler: MinMaxScaler,
        optimizer,
        n_infeasible: int,
        n_replayed: int,
        n_quarantined: int,
        reason: str,
        t_start: float,
        root,
        i_train_end: int,
        i_val_end: int,
        target_channel: int = 0,
    ) -> tuple[LoadDynamicsPredictor, FitReport]:
        """Graceful degradation: hand back a naive last-value predictor.

        The paper's workflow assumes step 4 always has a best model to
        select; on a production cluster "every trial failed" must still
        yield *some* predictor, so the degraded fit returns persistence
        (last value) with the degradation flagged on the report.  The
        predictor is tagged with the ``naive`` family, which makes it
        persistable like any other (its save format is a marker file).
        """
        model = NaiveLastValueModel(target_channel=target_channel)
        _, tgt = split_target(model, s)
        val_pred = tgt[i_train_end - 1 : i_val_end - 1]
        val_actual = tgt[i_train_end:i_val_end]
        try:
            naive_mape = float(mape(val_pred, val_actual))
        except ValueError:
            naive_mape = float("inf")
        naive = get_family("naive")
        hp = naive.hyperparameters({})
        predictor = LoadDynamicsPredictor(
            model=model,
            scaler=scaler,
            hyperparameters=hp,
            validation_mape=naive_mape,
            family=naive.name,
            target_channel=target_channel,
        )
        report = FitReport(
            best_hyperparameters=hp,
            best_validation_mape=naive_mape,
            trials=list(optimizer.history),
            total_seconds=time.perf_counter() - t_start,
            n_infeasible=n_infeasible,
            degraded=True,
            degraded_reason=reason,
            n_resumed=n_replayed,
            n_quarantined=n_quarantined,
        )
        report.telemetry = report.build_telemetry()
        report.telemetry["fit_span_seconds"] = root.duration_s
        _metrics.counter("fit.degraded").inc()
        logger.warning(
            "fit degraded (%s) after %d trials (%d infeasible); returning "
            "naive last-value predictor (validation MAPE %.2f%%)",
            reason, report.n_trials, n_infeasible, naive_mape,
        )
        if _events.enabled():
            _events.emit(
                "fit.degraded",
                reason=reason,
                n_trials=report.n_trials,
                n_infeasible=n_infeasible,
            )
        return predictor, report

    # ------------------------------------------------------------------
    def _make_optimizer(self):
        kwargs = dict(self.optimizer_kwargs)
        if self.optimizer_cls is BayesianOptimizer:
            kwargs.setdefault("n_initial", self.settings.n_initial)
            kwargs.setdefault("acquisition", self.settings.acquisition)
        kwargs.setdefault("seed", self.settings.seed)
        return self.optimizer_cls(self.space, **kwargs)

    # ------------------------------------------------------------------
    def evaluate(
        self, predictor: LoadDynamicsPredictor, series: np.ndarray
    ) -> float:
        """Test MAPE on the last ``1 - train - val`` fraction of ``series``
        (the paper's accuracy number, Section IV-B).  Multivariate
        predictors are scored on their target channel."""
        s, target = split_target(predictor, series)
        cfg = self.settings
        i_test = int(round((cfg.train_frac + cfg.val_frac) * s.shape[0]))
        preds = predictor.predict_series(s, i_test)
        return mape(preds, target[i_test:])
