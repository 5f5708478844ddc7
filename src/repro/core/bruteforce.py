"""Brute-force LSTM search (the Fig. 9 "LSTMBruteForce" baseline).

The paper's exhaustive search took "1-day to 6-weeks" per workload on a
16-core Xeon — embarrassingly parallel over hyperparameter combinations.
Here it is :class:`~repro.core.framework.LoadDynamics` with a shuffled
:class:`~repro.bayesopt.grid_search.GridSearch` in place of Bayesian
Optimization: the same data preparation, trial evaluation (deadlines,
retries, quarantine) and search loop as every other fit.  With
``n_workers`` > 1 each round trains one grid point per worker process;
trials are told in grid order, so serial and parallel sweeps select the
same winner.  The result carries the predictor the fit built from the
winning trial's model, so the winner is trained once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.bayesopt.grid_search import GridSearch
from repro.bayesopt.space import SearchSpace
from repro.core.config import FrameworkSettings, LSTMHyperparameters
from repro.core.framework import LoadDynamics
from repro.core.predictor import LoadDynamicsPredictor

__all__ = ["brute_force_search", "BruteForceResult"]


@dataclass
class BruteForceResult:
    """Outcome of an exhaustive (possibly truncated) grid sweep."""

    best_hyperparameters: LSTMHyperparameters
    best_validation_mape: float
    evaluations: list[tuple[dict, float]] = field(default_factory=list)
    n_infeasible: int = 0
    #: The deployable predictor wrapping the winning trial's model.
    predictor: LoadDynamicsPredictor | None = None

    @property
    def n_evaluated(self) -> int:
        return len(self.evaluations)


def brute_force_search(
    series: np.ndarray,
    space: SearchSpace,
    settings: FrameworkSettings | None = None,
    points_per_dim: int = 3,
    max_trials: int | None = None,
    n_workers: int | None = None,
    shuffle_seed: int = 0,
) -> BruteForceResult:
    """Exhaustively evaluate a hyperparameter grid, in parallel.

    ``max_trials`` truncates the (shuffled) grid — the honest way to run
    the paper's weeks-long search inside a time budget.  ``n_workers``
    ``None`` uses every available CPU.  Returns every evaluation so
    callers can study the error landscape (Fig. 5 style), and the
    winner as a deployable :class:`LoadDynamicsPredictor`.
    """
    from repro.parallel import effective_workers

    cfg = settings if settings is not None else FrameworkSettings.reduced()
    n_trials = len(space.grid(points_per_dim))
    if max_trials is not None:
        n_trials = min(n_trials, max_trials)
    if n_trials < 1:
        raise ValueError("empty grid")
    ld = LoadDynamics(
        space,
        dataclasses.replace(cfg, max_iters=n_trials),
        optimizer_cls=GridSearch,
        optimizer_kwargs={
            "points_per_dim": points_per_dim,
            "shuffle": True,
            "seed": shuffle_seed,
        },
    )
    predictor, report = ld.fit(
        series, n_workers=effective_workers() if n_workers is None else n_workers
    )
    if report.degraded:
        raise RuntimeError("no feasible configuration in the grid")
    return BruteForceResult(
        best_hyperparameters=report.best_hyperparameters,
        best_validation_mape=float(report.best_validation_mape),
        evaluations=[(t.config, t.value) for t in report.trials],
        n_infeasible=report.n_infeasible,
        predictor=predictor,
    )

