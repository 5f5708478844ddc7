"""Ablations for the design choices DESIGN.md §7 calls out.

* :func:`run_search_ablation` — BO vs random vs grid search under an
  equal trial budget (paper Section III-A: grid was less effective; random
  matched accuracy but took longer — here wall time per trial is identical,
  so we report best-found error *and* the iteration at which it was found,
  the paper's effective-time argument).
* :func:`run_acquisition_ablation` — EI (paper) vs PI vs LCB.
* :func:`run_family_ablation` — the same self-optimization loop over
  different model families (the framework's "generic" claim made
  measurable: only the family changes, the workflow does not).
"""

from __future__ import annotations

import dataclasses
import time

from repro.bayesopt.grid_search import GridSearch
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.random_search import RandomSearch
from repro.core import FrameworkSettings, LoadDynamics, search_space_for
from repro.experiments.common import test_start_index, evaluate_on_test
from repro.traces import get_configuration

__all__ = [
    "run_search_ablation",
    "run_acquisition_ablation",
    "run_family_ablation",
]


def _fit_and_score(
    ld: LoadDynamics, series, max_eval: int | None
) -> tuple[float, float, int, float]:
    """(val mape, test mape, best-found-at iteration, seconds)."""
    t0 = time.perf_counter()
    predictor, report = ld.fit(series)
    elapsed = time.perf_counter() - t0
    start = test_start_index(len(series), max_eval)
    preds = predictor.predict_series(series, start)
    test = evaluate_on_test(preds, series, start)
    best_iter = int(min(range(len(report.trials)), key=lambda i: report.trials[i].value))
    return report.best_validation_mape, test, best_iter, elapsed


def run_search_ablation(
    workload: str = "gl-30m",
    budget: str = "reduced",
    n_iters: int = 12,
    settings: FrameworkSettings | None = None,
    max_eval: int | None = 150,
) -> list[dict]:
    """BO vs random vs grid with the same trial budget on one workload."""
    series = get_configuration(workload).load()
    trace = workload.split("-")[0]
    space_args = (trace, budget)
    if settings is None:
        settings = FrameworkSettings.reduced(max_iters=n_iters)
    else:
        settings = dataclasses.replace(settings, max_iters=n_iters)
    rows: list[dict] = []
    optimizers = [
        ("bayesian", BayesianOptimizer, {"n_initial": max(2, n_iters // 4), "seed": 0}),
        ("random", RandomSearch, {"seed": 0}),
        ("grid", GridSearch, {"points_per_dim": 3, "shuffle": True, "seed": 0}),
    ]
    for name, cls, kwargs in optimizers:
        ld = LoadDynamics(
            space=search_space_for(*space_args),
            settings=settings,
            optimizer_cls=cls,
            optimizer_kwargs=kwargs,
        )
        val, test, best_iter, secs = _fit_and_score(ld, series, max_eval)
        rows.append(
            {
                "optimizer": name,
                "val_mape": val,
                "test_mape": test,
                "best_found_at_iter": best_iter,
                "seconds": secs,
            }
        )
    return rows


def run_family_ablation(
    workload: str = "gl-30m",
    budget: str = "reduced",
    n_iters: int = 12,
    families: tuple[str, ...] = ("lstm", "gru", "gbr", "svr"),
    settings: FrameworkSettings | None = None,
    max_eval: int | None = 150,
) -> list[dict]:
    """One BO run per model family with identical budgets on one workload.

    Everything but the family (search space + trial training) is held
    fixed — same optimizer, seed, split, and iteration budget — so the
    rows isolate what the model *kind* contributes.
    """
    series = get_configuration(workload).load()
    trace = workload.split("-")[0]
    rows: list[dict] = []
    s = (
        FrameworkSettings.reduced(max_iters=n_iters)
        if settings is None
        else dataclasses.replace(settings, max_iters=n_iters)
    )
    for family in families:
        ld = LoadDynamics(
            settings=s, trace_name=trace, budget=budget, family=family
        )
        val, test, best_iter, secs = _fit_and_score(ld, series, max_eval)
        rows.append(
            {
                "family": family,
                "val_mape": val,
                "test_mape": test,
                "best_found_at_iter": best_iter,
                "seconds": secs,
            }
        )
    return rows


def run_acquisition_ablation(
    workload: str = "gl-30m",
    budget: str = "reduced",
    n_iters: int = 12,
    settings: FrameworkSettings | None = None,
    max_eval: int | None = 150,
) -> list[dict]:
    """EI vs PI vs LCB with the same budget (DESIGN.md §7)."""
    series = get_configuration(workload).load()
    trace = workload.split("-")[0]
    rows: list[dict] = []
    base = settings if settings is not None else FrameworkSettings.reduced()
    for acq in ("ei", "pi", "lcb"):
        s = dataclasses.replace(base, acquisition=acq, max_iters=n_iters)
        ld = LoadDynamics(space=search_space_for(trace, budget), settings=s)
        val, test, best_iter, secs = _fit_and_score(ld, series, max_eval)
        rows.append(
            {
                "acquisition": acq,
                "val_mape": val,
                "test_mape": test,
                "best_found_at_iter": best_iter,
                "seconds": secs,
            }
        )
    return rows
