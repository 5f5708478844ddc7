"""Fig. 9 — the headline accuracy comparison over 14 configurations.

For every workload configuration (Table I) this runner scores:

* **LoadDynamics** — the full Fig. 6 workflow (BO over Table III space);
* **CloudInsight**, **CloudScale**, **Wood et al.** — the three prior
  frameworks;
* **LSTMBruteForce** — exhaustive search over a shuffled grid of the
  same space (the paper ran this for up to six weeks per workload; the
  ``brute_force_trials`` budget truncates it honestly — see DESIGN.md §6).

Expected shape (paper Section IV-B): LoadDynamics lowest on average and
within ~1% of brute force; errors rise at small intervals for the
small-JAR traces (FB, Azure, LCG); Wikipedia easiest.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bayesopt.grid_search import GridSearch
from repro.core import FrameworkSettings, LoadDynamics, search_space_for
from repro.core.framework import FitReport
from repro.experiments.common import (
    baseline_test_mape,
    evaluate_on_test,
    test_start_index,
)
from repro.obs.logging import get_logger
from repro.traces import ALL_CONFIGURATIONS, get_configuration

__all__ = ["run_fig9", "Fig9Result"]

logger = get_logger("experiments.fig9")

BASELINES = ("cloudinsight", "cloudscale", "wood")


@dataclass
class Fig9Result:
    """Rows plus the per-config LoadDynamics fit reports (feeds Table IV)."""

    rows: list[dict] = field(default_factory=list)
    reports: dict[str, FitReport] = field(default_factory=dict)

    def average_row(self) -> dict:
        """The "AVG" bar of Fig. 9b."""
        if not self.rows:
            raise RuntimeError("no rows")
        keys = [k for k in self.rows[0] if k != "workload"]
        avg: dict = {"workload": "AVG"}
        for k in keys:
            vals = [r[k] for r in self.rows if np.isfinite(r.get(k, np.nan))]
            avg[k] = float(np.mean(vals)) if vals else float("nan")
        return avg


def _brute_force_mape(
    series: np.ndarray,
    trace: str,
    budget: str,
    settings: FrameworkSettings,
    trials: int,
    max_eval: int | None,
) -> float:
    """LSTMBruteForce: grid search over the same space, same trainer."""
    space = search_space_for(trace, budget)
    ld = LoadDynamics(
        space=space,
        settings=dataclasses.replace(settings, max_iters=trials),
        optimizer_cls=GridSearch,
        optimizer_kwargs={"points_per_dim": 3, "shuffle": True, "seed": 1},
    )
    predictor, _ = ld.fit(series)
    start = test_start_index(len(series), max_eval)
    preds = predictor.predict_series(series, start)
    return evaluate_on_test(preds, series, start)


def run_fig9(
    configurations: list[str] | None = None,
    budget: str = "reduced",
    settings: FrameworkSettings | None = None,
    brute_force_trials: int = 16,
    max_eval: int | None = 150,
    include_brute_force: bool = True,
    verbose: bool = False,
) -> Fig9Result:
    """Score every method on every configuration.

    ``configurations`` defaults to all 14 Table I keys; pass a subset for
    quick runs.  ``max_eval`` caps the scored test window per config
    (identical targets for all methods).
    """
    if configurations is None:
        configurations = [c.key for c in ALL_CONFIGURATIONS]
    result = Fig9Result()
    for key in configurations:
        t0 = time.perf_counter()
        series = get_configuration(key).load()
        trace = key.split("-")[0]
        per_cfg_settings = (
            settings if settings is not None else FrameworkSettings.reduced()
        )
        from repro.experiments.common import fit_loaddynamics

        predictor, report, ld_mape = fit_loaddynamics(
            series, trace, budget=budget, settings=per_cfg_settings, max_eval=max_eval
        )
        row: dict = {"workload": key, "loaddynamics": ld_mape}
        result.reports[key] = report
        for name in BASELINES:
            row[name] = baseline_test_mape(name, series, max_eval=max_eval)
        if include_brute_force:
            row["lstm_bruteforce"] = _brute_force_mape(
                series, trace, budget, per_cfg_settings, brute_force_trials, max_eval
            )
        result.rows.append(row)
        log = logger.info if verbose else logger.debug
        log("[fig9] %s: %s (%.1fs)", key, row, time.perf_counter() - t0)
    return result
