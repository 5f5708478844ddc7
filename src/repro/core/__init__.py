"""LoadDynamics — the paper's primary contribution.

The self-optimized generic workload prediction framework (paper
Section III): stacked LSTM predictors whose four hyperparameters
(history length ``n``, cell-memory size, layer count, batch size) are
tuned per workload by Bayesian Optimization over the Table III search
space, following the Fig. 6 workflow.

Public entry points:

* :class:`~repro.core.framework.LoadDynamics` — fit on a JAR series,
  get back a :class:`~repro.core.predictor.LoadDynamicsPredictor`;
  ``family=`` selects the :mod:`repro.models` family a trial trains;
* :func:`~repro.core.config.search_space_for` — Table III spaces;
* the pipeline stages — :func:`~repro.core.data.prepare_data`,
  :class:`~repro.core.evaluation.TrialEvaluator`,
  :class:`~repro.core.driver.SearchDriver` — composable directly
  (the Fig. 5 bench does); the brute-force baseline
  (:mod:`~repro.core.bruteforce`) is a :class:`LoadDynamics` fit over a
  shuffled grid search;
* :mod:`~repro.core.windowing` / :mod:`~repro.core.scaling` — the data
  plumbing (Eq. 1 windows, leak-free min-max normalization).
"""

from repro.core.adaptive import AdaptiveLoadDynamics
from repro.core.cache import TrialMemo, WindowCache
from repro.core.config import (
    FrameworkSettings,
    GenericHyperparameters,
    LSTMHyperparameters,
    history_range,
    search_space_for,
)
from repro.core.constants import FAILURE_REASONS, INFEASIBLE_PENALTY
from repro.core.data import PreparedData, prepare_data
from repro.core.driver import SearchDriver
from repro.core.evaluation import TrialEvaluator
from repro.core.framework import FitReport, LoadDynamics
from repro.core.predictor import LoadDynamicsPredictor
from repro.core.scaling import MinMaxScaler
from repro.core.windowing import make_windows, windows_for_range

__all__ = [
    "AdaptiveLoadDynamics",
    "LoadDynamics",
    "LoadDynamicsPredictor",
    "FitReport",
    "LSTMHyperparameters",
    "GenericHyperparameters",
    "FrameworkSettings",
    "search_space_for",
    "history_range",
    "MinMaxScaler",
    "TrialMemo",
    "WindowCache",
    "PreparedData",
    "prepare_data",
    "TrialEvaluator",
    "SearchDriver",
    "INFEASIBLE_PENALTY",
    "FAILURE_REASONS",
    "make_windows",
    "windows_for_range",
]
