"""The Bayesian-Optimization loop (paper Fig. 6 steps 2–4).

Each iteration:

1. fit a GP regression model over (explored hyperparameter sets →
   cross-validation error) — the "database" of validated models;
2. maximize the acquisition (expected improvement by default) over the
   unit cube to propose the next, potentially-better set;
3. hand it to the caller (ask/tell) or evaluate the objective directly
   (:meth:`BayesianOptimizer.run`).

Acquisition maximization uses dense random candidates plus local
perturbations of the incumbent, followed by an L-BFGS-B polish of the
best candidate in the continuous relaxation; the decoded config is
deduplicated against history (integer rounding collapses nearby points).

The module also holds what every optimizer shares:
:class:`SearchOptimizer` (trial history, best record, quarantine hook,
``tell`` and ``run``) and :func:`run_search`, the one suggest → evaluate
→ tell loop behind ``run`` and the framework's search driver.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from repro.bayesopt.acquisition import ACQUISITIONS, score_candidates
from repro.bayesopt.space import SearchSpace
from repro.gp import GaussianProcessRegressor, Matern52
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.parallel import WorkerPool, effective_workers

__all__ = [
    "BayesianOptimizer",
    "SearchOptimizer",
    "TrialRecord",
    "batch_evaluator",
    "unpack_objective",
    "record_trial",
    "run_search",
]

logger = get_logger("bayesopt")


def unpack_objective(out) -> tuple[float, dict]:
    """Normalize an objective return value.

    Objectives may return a bare float or ``(value, metadata)`` — the
    metadata dict is attached to the :class:`TrialRecord` via ``tell``.
    """
    if isinstance(out, tuple):
        value, meta = out
        return float(value), dict(meta)
    return float(out), {}


def record_trial(record: "TrialRecord", optimizer: str) -> None:
    """Per-trial telemetry shared by all search optimizers.

    Counts the trial, tracks the objective distribution, and — when an
    event sink is registered — emits one ``bo.trial`` record carrying
    the suggested config, the objective value, and whatever metadata the
    caller attached (timings, epochs run, early-stop flags, ...).
    """
    _metrics.counter("bo.trials").inc()
    _metrics.histogram("bo.objective").observe(record.value)
    if _events.enabled():
        _events.emit(
            "bo.trial",
            optimizer=optimizer,
            iteration=record.iteration,
            config=dict(record.config),
            value=record.value,
            **record.metadata,
        )


@dataclass
class TrialRecord:
    """One validated hyperparameter set and its objective value."""

    iteration: int
    config: dict
    value: float
    metadata: dict = field(default_factory=dict)


@contextmanager
def batch_evaluator(objective: Callable[[dict], object], workers: int):
    """Context manager yielding the batch evaluation :func:`run_search`
    calls for a per-config ``objective``: a plain loop for one worker or
    a lone config, otherwise a map over one
    :class:`repro.parallel.WorkerPool` (one chunk per worker, so the
    objective must be picklable).  The pool starts with the first
    parallel round and shuts down when the block exits, normally or by
    an exception, so one search opens at most one pool."""
    if workers <= 1:
        yield lambda configs: [objective(config) for config in configs]
        return
    with WorkerPool(workers) as pool:

        def evaluate(configs: list[dict]) -> list:
            if len(configs) < 2:
                return [objective(config) for config in configs]
            return pool.map(objective, configs)

        yield evaluate


def run_search(
    optimizer,
    evaluate: Callable[[list[dict]], list],
    n_iters: int,
    callback: Callable[["TrialRecord"], None] | None = None,
    workers: int = 1,
) -> None:
    """The one suggest → evaluate → tell loop behind every search.

    Each round asks for one config (``suggest``) when ``workers`` is 1,
    else for a batch of up to ``workers`` (``suggest_batch``), hands the
    configs to ``evaluate`` (a list of objective outputs back, in the
    same order), and tells the results in suggestion order, so the trial
    records are deterministic for a deterministic objective.  The loop
    stops after ``n_iters`` trials or when the optimizer runs out of
    configs (an exhausted grid).
    """
    remaining = n_iters
    while remaining > 0:
        try:
            if workers <= 1:
                configs = [optimizer.suggest()]
            else:
                configs = optimizer.suggest_batch(min(workers, remaining))
        except StopIteration:  # grid exhausted
            break
        if not configs:
            break
        for config, out in zip(configs, evaluate(configs), strict=True):
            value, meta = unpack_objective(out)
            record = optimizer.tell(config, value, **meta)
            if callback is not None:
                callback(record)
        remaining -= len(configs)


class SearchOptimizer:
    """Trial bookkeeping shared by the search optimizers.

    Holds the trial history and the quarantine predicate, records told
    values (:meth:`tell`), and drives a closed-loop search (:meth:`run`).
    Subclasses provide ``suggest`` and ``suggest_batch``.
    """

    #: Optimizer label on the ``bo.trial`` telemetry events.
    name = "search"

    def __init__(self, space: SearchSpace):
        self.space = space
        self.history: list[TrialRecord] = []
        self._excluded: Callable[[dict], bool] | None = None
        #: Configs suggested by an in-flight ``suggest_batch`` whose
        #: values have not been told yet; deduplication treats them as
        #: explored so one batch never proposes the same point twice.
        self._pending_batch: list[dict] = []

    @property
    def n_trials(self) -> int:
        return len(self.history)

    @property
    def best_record(self) -> TrialRecord:
        """The lowest-error trial seen so far (workflow step 4)."""
        if not self.history:
            raise RuntimeError("no trials evaluated yet")
        return min(self.history, key=lambda r: r.value)

    @property
    def best_config(self) -> dict:
        return dict(self.best_record.config)

    @property
    def best_value(self) -> float:
        return self.best_record.value

    def set_excluded(self, predicate: Callable[[dict], bool] | None) -> None:
        """Ban configs for which ``predicate`` is true from being suggested
        (the quarantine hook — see :class:`repro.resilience.Quarantine`)."""
        self._excluded = predicate

    def _explored(self, config: dict) -> bool:
        """Whether ``config`` was told already or is pending in a batch."""
        return any(p == config for p in self._pending_batch) or any(
            r.config == config for r in self.history
        )

    def tell(self, config: dict, value: float, **metadata) -> TrialRecord:
        """Record the objective value for a suggested (or external) config."""
        self.space.validate(config)
        if not np.isfinite(value):
            # Failed trainings (diverged loss etc.) are recorded at a large
            # finite penalty so the search steers away instead of crashing.
            value = 1e6
        if self._pending_batch:
            try:
                self._pending_batch.remove(config)
            except ValueError:
                pass
        record = TrialRecord(
            iteration=self.n_trials,
            config=dict(config),
            value=float(value),
            metadata=metadata,
        )
        self.history.append(record)
        record_trial(record, optimizer=self.name)
        return record

    def run(
        self,
        objective: Callable[[dict], float],
        n_iters: int,
        callback: Callable[[TrialRecord], None] | None = None,
        n_workers: int | None = None,
    ) -> TrialRecord:
        """Evaluate ``objective`` for ``n_iters`` iterations; return the best.

        ``n_iters`` is the paper's ``maxIters`` (100 in their runs).
        The objective may return a bare value or ``(value, metadata)``;
        metadata lands on the :class:`TrialRecord`.

        With ``n_workers`` > 1, iterations are grouped into batches
        (``suggest_batch``) evaluated on one
        :class:`repro.parallel.WorkerPool`; the objective must then be
        picklable.  Results are told in suggestion order, so the trial
        history ordering is deterministic.
        """
        if n_iters < 1:
            raise ValueError("n_iters must be >= 1")
        workers = 1 if n_workers is None else effective_workers(n_workers)
        with batch_evaluator(objective, workers) as evaluate:
            run_search(self, evaluate, n_iters, callback, workers)
        return self.best_record


class BayesianOptimizer(SearchOptimizer):
    """GP-based minimizer over a :class:`SearchSpace`.

    Parameters
    ----------
    space:
        The hyperparameter space (Table III ranges for LoadDynamics).
    n_initial:
        Random configurations evaluated before the GP takes over (the
        workflow "starts with a randomly selected set", Fig. 6).
    acquisition:
        ``"ei"`` (paper), ``"pi"`` or ``"lcb"``.
    xi / kappa:
        Acquisition exploration parameters.
    n_candidates:
        Random candidates scored per suggestion.
    seed:
        Reproducibility seed for candidate sampling and the GP restarts.
    """

    name = "bayesian"

    def __init__(
        self,
        space: SearchSpace,
        n_initial: int = 5,
        acquisition: str = "ei",
        xi: float = 0.01,
        kappa: float = 2.0,
        n_candidates: int = 1024,
        gp_noise: float = 1e-4,
        seed: int = 0,
    ):
        if acquisition not in ACQUISITIONS:
            raise ValueError(
                f"unknown acquisition {acquisition!r}; choose from {sorted(ACQUISITIONS)}"
            )
        if n_initial < 1:
            raise ValueError("n_initial must be >= 1")
        super().__init__(space)
        self.n_initial = int(n_initial)
        self.acquisition_name = acquisition
        self.xi = float(xi)
        self.kappa = float(kappa)
        self.n_candidates = int(n_candidates)
        self.gp_noise = float(gp_noise)
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        self._pending: dict | None = None
        #: Timings of the most recent :meth:`suggest`, attached to the
        #: next :meth:`tell`'s record so every trial carries the cost of
        #: proposing it (surrogate fit + acquisition optimization).
        self._suggest_timings: dict = {}
        #: Per-suggestion timing dicts queued by :meth:`suggest_batch`,
        #: consumed one per :meth:`tell` so batched trials carry their
        #: own proposal costs just like serial ones.
        self._batch_timings: deque[dict] = deque()

    # ------------------------------------------------------------------
    # resilience hooks
    # ------------------------------------------------------------------
    def search_state(self) -> dict:
        """Serializable state needed to resume suggesting deterministically.

        ``tell`` consumes no randomness, so the state captured after
        trial *i* is exactly the state ``suggest`` for trial *i+1* will
        see — restoring it makes a resumed run bit-for-bit identical.
        """
        return {"rng": self._rng.bit_generator.state}

    def restore_search_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]

    def _sample_novel(self) -> dict:
        """Uniform sample, dodging excluded configs when a ban is active."""
        config = self.space.sample(self._rng, 1)[0]
        if self._excluded is None:
            return config
        for _ in range(32):
            if not self._excluded(config):
                return config
            config = self.space.sample(self._rng, 1)[0]
        return config

    # ------------------------------------------------------------------
    # ask / tell
    # ------------------------------------------------------------------
    def suggest(self) -> dict:
        """Propose the next hyperparameter set to validate.

        If the GP surrogate cannot be fit or optimized (singular kernel
        matrix, numerical blow-up), the iteration degrades to a random
        suggestion instead of aborting the run; the degradation is
        flagged on the next trial's metadata and telemetry.
        """
        self._suggest_timings = {}
        if self.n_trials < self.n_initial or len(self._y) < 2:
            config = self._sample_novel()
        else:
            try:
                config = self._suggest_with_gp()
            except (np.linalg.LinAlgError, FloatingPointError) as exc:
                _metrics.counter("bo.surrogate_failures").inc()
                logger.warning(
                    "surrogate failed at trial %d (%s); degrading to a "
                    "random suggestion",
                    self.n_trials,
                    exc,
                )
                if _events.enabled():
                    _events.emit(
                        "bo.degraded", iteration=self.n_trials, error=str(exc)
                    )
                self._suggest_timings["degraded_suggest"] = True
                config = self._sample_novel()
        self._pending = config
        return config

    def suggest_batch(self, q: int) -> list[dict]:
        """Propose ``q`` configs to evaluate concurrently (ask/tell batch).

        Uses the *constant liar* strategy (Ginsbourger et al. 2010):
        after each suggestion the batch pretends the point was observed
        at the incumbent best value, so the next acquisition
        maximization is penalized around already-pending points and the
        batch spreads out instead of proposing q near-duplicates.  The
        lies are popped before returning — only real :meth:`tell` values
        ever enter the history.

        ``suggest_batch(1)`` is exactly :meth:`suggest`: same RNG
        stream, same proposal, no liar machinery.
        """
        if q < 1:
            raise ValueError("batch size q must be >= 1")
        self._pending_batch = []
        self._batch_timings = deque()
        if q == 1:
            return [self.suggest()]
        configs: list[dict] = []
        timings: list[dict] = []
        lie = float(np.min(self._y)) if self._y else None
        n_lies = 0
        t0 = time.perf_counter()
        try:
            for _ in range(q):
                config = self.suggest()
                timings.append(self._suggest_timings)
                self._suggest_timings = {}
                configs.append(config)
                self._pending_batch.append(config)
                if lie is not None:
                    # Temporarily record the lie so the next surrogate
                    # fit sees the pending point as explored.
                    self._X.append(self.space.to_unit(config))
                    self._y.append(lie)
                    n_lies += 1
        finally:
            if n_lies:
                del self._X[-n_lies:]
                del self._y[-n_lies:]
        self._batch_timings = deque(timings)
        _metrics.counter("bo.batches").inc()
        if _events.enabled():
            _events.emit(
                "bo.batch",
                q=q,
                iteration=self.n_trials,
                lie=lie,
                suggest_seconds=time.perf_counter() - t0,
            )
        return configs

    def tell(self, config: dict, value: float, **metadata) -> TrialRecord:
        """Record the objective value; the trial carries the timings of
        the suggestion that proposed it."""
        t0 = time.perf_counter()
        if not self._suggest_timings and self._batch_timings:
            self._suggest_timings = self._batch_timings.popleft()
        if self._suggest_timings:
            metadata = {**self._suggest_timings, **metadata}
            self._suggest_timings = {}
        record = super().tell(config, value, **metadata)
        self._X.append(self.space.to_unit(config))
        self._y.append(record.value)
        self._pending = None
        logger.debug(
            "trial %d: value=%.4g config=%s", record.iteration, record.value, record.config
        )
        _metrics.timer("bo.tell_seconds").observe(time.perf_counter() - t0)
        return record

    # ------------------------------------------------------------------
    # the GP suggestion machinery
    # ------------------------------------------------------------------
    def _fit_surrogate(self) -> GaussianProcessRegressor:
        gp = GaussianProcessRegressor(
            kernel=Matern52(ard=True, n_dims=self.space.n_dims, lengthscale=0.3),
            noise=self.gp_noise,
            optimize=True,
            optimize_noise=True,
            n_restarts=1,
            seed=int(self._rng.integers(2**31)),
        )
        gp.fit(np.vstack(self._X), np.asarray(self._y))
        return gp

    def _acquisition_values(
        self, gp: GaussianProcessRegressor, U: np.ndarray
    ) -> np.ndarray:
        return score_candidates(
            gp,
            U,
            self.acquisition_name,
            float(np.min(self._y)),
            xi=self.xi,
            kappa=self.kappa,
        )

    def _suggest_with_gp(self) -> dict:
        t0 = time.perf_counter()
        gp = self._fit_surrogate()
        t1 = time.perf_counter()
        self._suggest_timings["surrogate_fit_s"] = t1 - t0
        _metrics.timer("bo.surrogate_fit_seconds").observe(t1 - t0)
        try:
            return self._optimize_acquisition(gp)
        finally:
            t2 = time.perf_counter()
            self._suggest_timings["acq_opt_s"] = t2 - t1
            _metrics.timer("bo.acq_opt_seconds").observe(t2 - t1)

    def _optimize_acquisition(self, gp: GaussianProcessRegressor) -> dict:
        d = self.space.n_dims

        # Candidate pool: global uniform + local Gaussian perturbations of
        # the incumbent (standard GPyOpt-style mixed strategy).
        n_local = max(1, self.n_candidates // 4)
        U_global = self._rng.uniform(size=(self.n_candidates, d))
        incumbent = self._X[int(np.argmin(self._y))]
        U_local = np.clip(
            incumbent + 0.05 * self._rng.standard_normal((n_local, d)), 0.0, 1.0
        )
        U = np.vstack([U_global, U_local])
        scores = self._acquisition_values(gp, U)
        u_best = U[int(np.argmax(scores))]

        # L-BFGS-B polish in the continuous relaxation.
        def neg_acq(u):
            return -float(self._acquisition_values(gp, u[None, :])[0])

        res = minimize(
            neg_acq,
            u_best,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * d,
            options={"maxiter": 50},
        )
        if np.isfinite(res.fun) and -res.fun >= float(np.max(scores)):
            u_best = res.x
        _metrics.gauge("bo.acquisition.candidates").set(
            float(U.shape[0] + res.nfev)
        )

        return self._decode_best(u_best, U, scores)

    def _decode_best(
        self, u_best: np.ndarray, U: np.ndarray, scores: np.ndarray
    ) -> dict:
        """Decode the winning unit-cube point, dodging explored configs."""
        config = self.space.from_unit(u_best)
        if self._is_duplicate(config):
            # Integer rounding collapsed onto an explored point; fall back
            # to the best *novel* candidate, then to random.
            order = np.argsort(scores)[::-1]
            for idx in order[: min(64, len(order))]:
                cand = self.space.from_unit(U[idx])
                if not self._is_duplicate(cand):
                    return cand
            return self._sample_novel()
        return config

    def _is_duplicate(self, config: dict) -> bool:
        if self._excluded is not None and self._excluded(config):
            return True
        return self._explored(config)
