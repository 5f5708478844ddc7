"""Search-driver stage: Fig. 6 step 3 with the resilience semantics.

The driver runs any :mod:`repro.bayesopt` optimizer through the same
suggest → evaluate → tell loop as ``optimizer.run``
(:func:`~repro.bayesopt.optimizer.run_search`), with the crash-safe
additions the framework has always used:

* every completed trial is fsynced to the :class:`TrialJournal`
  (config, value, metadata, optimizer search state) before the next
  one starts, so a crash loses at most the in-flight trial;
* repeat offenders (divergence/timeout failures) are quarantined and
  never suggested again;
* a journal written by an interrupted run can be *replayed* into a
  fresh optimizer — each trial is ``tell``-ed with its recorded value,
  no retraining — after which the continued run is deterministic.

The driver is model-family-agnostic: it sees only configs, objective
values, and metadata dicts.  What a trial *does* lives in the
evaluation stage (:class:`~repro.core.evaluation.TrialEvaluator`).
"""

from __future__ import annotations

from repro.core.cache import TrialMemo
from repro.core.constants import FAILURE_REASONS
from repro.bayesopt.optimizer import run_search
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.resilience import faults as _faults
from repro.resilience.journal import TrialJournal

logger = get_logger("core.driver")

__all__ = ["SearchDriver", "normalize_journal_header"]


def normalize_journal_header(stored_header: dict) -> dict:
    """Upgrade a pre-family journal header in place (and return it).

    Journals written before the model-family refactor have no
    ``family`` key; every one of them was an LSTM search, so the tag
    defaults to ``"lstm"`` and old journals keep resuming bit-for-bit.
    """
    stored_header.setdefault("family", "lstm")
    return stored_header


class SearchDriver:
    """Resilient suggest/evaluate/tell loop over one optimizer.

    Parameters
    ----------
    optimizer:
        Any :mod:`repro.bayesopt` optimizer (``suggest``/``tell``;
        batched rounds use ``suggest_batch``).
    journal:
        Optional open :class:`~repro.resilience.TrialJournal`; completed
        trials are appended (fsynced) as they finish.
    quarantine:
        Optional :class:`~repro.resilience.retry.Quarantine` ledger.
    """

    def __init__(self, optimizer, journal: TrialJournal | None = None,
                 quarantine=None):
        self.optimizer = optimizer
        self.journal = journal
        self.quarantine = quarantine

    # ------------------------------------------------------------------
    def run(
        self,
        evaluate,
        settle,
        memo: TrialMemo,
        n_iters: int,
        workers: int = 1,
    ) -> None:
        """Run ``n_iters`` trials through the shared ``run_search`` loop.

        ``evaluate`` trains a batch of configs (a list of
        ``(value, model, metadata)`` back, in order); ``workers`` > 1
        asks the optimizer for batches of that size (constant-liar
        batch for the GP, plain draws otherwise).  Before training, the
        ``objective`` fault site fires once per config, in the parent so
        injected failures hit the run deterministically, and memoized
        configs are short-circuited.  ``settle`` folds each result into
        the fit's bookkeeping, and every told trial is quarantined or
        journaled by :meth:`_after_trial` before the next round.
        """

        def evaluate_batch(configs: list[dict]) -> list[tuple[float, dict]]:
            injector = _faults.active()
            if injector is not None:
                for _ in configs:
                    injector.maybe_fire("objective")
            results: list = [None] * len(configs)
            todo: list[int] = []
            for i, config in enumerate(configs):
                hit = memo.get(config)
                if hit is not None:
                    value, meta = hit
                    results[i] = (value, None, {**meta, "cache_hit": True})
                else:
                    todo.append(i)
            trained = evaluate([configs[i] for i in todo])
            for i, out in zip(todo, trained, strict=True):
                results[i] = out
            return [
                settle(config, value, model, meta)
                for config, (value, model, meta) in zip(configs, results, strict=True)
            ]

        run_search(
            self.optimizer, evaluate_batch, n_iters, self._after_trial, workers
        )

    # ------------------------------------------------------------------
    def _after_trial(self, record) -> None:
        """Post-``tell`` bookkeeping: quarantine repeat offenders and
        fsync the trial to the journal."""
        config = record.config
        if (
            self.quarantine is not None
            and record.metadata.get("reason") in FAILURE_REASONS
        ):
            failures = self.quarantine.record_failure(config)
            if self.quarantine.is_quarantined(config):
                _metrics.counter("trial.quarantined").inc()
                logger.warning(
                    "config %s quarantined after %d failures", config, failures
                )
                if _events.enabled():
                    _events.emit(
                        "trial.quarantined", config=dict(config), failures=failures
                    )
        if self.journal is not None:
            state = (
                self.optimizer.search_state()
                if hasattr(self.optimizer, "search_state")
                else None
            )
            self.journal.append_trial(
                record.iteration,
                record.config,
                record.value,
                record.metadata,
                state=state,
            )

    # ------------------------------------------------------------------
    def replay(
        self, header: dict, best: dict, memo: TrialMemo | None = None
    ) -> tuple[int, int]:
        """Feed the journal's completed trials back into the optimizer.

        Returns ``(n_replayed, n_infeasible)``.  Each trial is
        ``tell``-ed with its recorded value (no retraining), the
        quarantine ledger is rebuilt from the recorded failure reasons,
        and the optimizer's search state (RNG/cursor) is restored from
        the last trial — after which the continued run is deterministic.
        """
        stored_header, trials = TrialJournal.load(self.journal.path)
        TrialJournal.check_header(normalize_journal_header(stored_header), header)
        n_infeasible = 0
        last_state = None
        for trial in trials:
            meta = dict(trial.get("metadata") or {})
            if memo is not None:
                # Seed the duplicate-config memo so the continued run
                # never retrains a journaled config.
                memo.put(trial["config"], trial["value"], meta)
            meta["replayed"] = True
            record = self.optimizer.tell(trial["config"], trial["value"], **meta)
            if meta.get("infeasible"):
                n_infeasible += 1
                if (
                    self.quarantine is not None
                    and meta.get("reason") in FAILURE_REASONS
                ):
                    self.quarantine.record_failure(record.config)
            elif record.value < best["mape"]:
                best.update(mape=record.value, config=record.config, model=None)
            if trial.get("state") is not None:
                last_state = trial["state"]
        if last_state is not None and hasattr(self.optimizer, "restore_search_state"):
            self.optimizer.restore_search_state(last_state)
        logger.info(
            "resumed from %s: replayed %d trials (%d infeasible)",
            self.journal.path, len(trials), n_infeasible,
        )
        return len(trials), n_infeasible
