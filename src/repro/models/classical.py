"""Classical (non-NN) model families over the :mod:`repro.ml` substrate.

The same windowed supervised framing the LSTM uses (Eq. 1: length-n
window → next value) works for any ``fit/predict`` regressor — this is
how CloudInsight's model pool and the ML baselines already consume the
data.  These families put two representative regressors behind the
self-optimization loop:

* ``gbr`` — gradient-boosted CART trees; tunes history length, number
  of stages, tree depth, and learning rate;
* ``svr`` — RBF-kernel support-vector regression; tunes history
  length, the loss weight ``C``, and the epsilon tube.

Training is single-shot (no epochs), so ``train`` returns ``None`` and
the evaluator skips the per-epoch divergence/early-stop bookkeeping;
the retry-with-reseed and deadline machinery still applies where it
can (a reseed changes the boosting subsample / gamma-heuristic draws).

Persistence uses the stdlib :mod:`pickle` — predictor directories are
local artifacts written by this framework, not untrusted input.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np

from repro.bayesopt.space import FloatParam, IntParam, SearchSpace
from repro.core.config import GenericHyperparameters, history_range
from repro.ml import GradientBoostingRegressor, KernelSVR
from repro.models.base import ModelFamily
from repro.state import write_atomic

__all__ = ["GBRFamily", "SVRFamily", "FlattenedLagRegressor"]

_MODEL_FILE = "model.pkl"


class FlattenedLagRegressor:
    """Flattened-lag adapter: (N, n, D) windows → (N, n*D) features.

    Classical regressors consume flat feature vectors, so a multivariate
    window is presented as its per-timestep channel blocks concatenated
    in time order (the 2-D reshape of the window tensor).  Univariate
    fits never construct this wrapper — their (N, n) windows reach the
    regressor untouched, exactly as before.  Module-level so pickled
    predictor directories round-trip.
    """

    def __init__(self, regressor):
        self.regressor = regressor

    @staticmethod
    def _flatten(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 3:
            return X.reshape(X.shape[0], -1)
        return X

    def fit(self, X: np.ndarray, y: np.ndarray):
        self.regressor.fit(self._flatten(X), y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.regressor.predict(self._flatten(X))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlattenedLagRegressor({self.regressor!r})"


class _WindowedRegressorFamily(ModelFamily):
    """Shared plumbing for single-shot windowed regressors."""

    kind = "classical"

    def _maybe_flatten(self, model, n_channels: int):
        """Wrap a freshly built regressor for multivariate windows."""
        if int(n_channels) > 1:
            return FlattenedLagRegressor(model)
        return model

    def train(
        self,
        model,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: np.ndarray,
        y_val: np.ndarray,
        config: dict,
        settings,
        epochs: int,
        patience: int,
        callbacks: list,
    ):
        # Single-shot fit: epochs/patience/callbacks are epoch-loop
        # concepts and do not apply.
        model.fit(X_train, y_train)
        return None

    def hyperparameters(self, config: dict) -> GenericHyperparameters:
        return GenericHyperparameters.from_dict(config)

    def save_model(self, model, directory: Path) -> list[str]:
        write_atomic(directory / _MODEL_FILE, pickle.dumps(model))
        return [_MODEL_FILE]

    def load_model(self, directory: Path):
        return pickle.loads((directory / _MODEL_FILE).read_bytes())


class GBRFamily(_WindowedRegressorFamily):
    """Gradient-boosted regression trees over lag windows."""

    name = "gbr"

    def search_space(
        self,
        trace_name: str = "default",
        budget: str = "paper",
        extended: bool = False,
    ) -> SearchSpace:
        hist = history_range(trace_name, budget)
        estimators = {"paper": (50, 400), "reduced": (20, 120), "tiny": (5, 20)}[budget]
        depth = {"paper": (2, 6), "reduced": (2, 4), "tiny": (1, 3)}[budget]
        return SearchSpace(
            [
                IntParam("history_len", *hist, log=True),
                IntParam("n_estimators", *estimators, log=True),
                IntParam("max_depth", *depth),
                FloatParam("learning_rate", 0.02, 0.3, log=True),
            ]
        )

    def build(
        self,
        config: dict,
        settings,
        seed: int,
        n_channels: int = 1,
        target_channel: int = 0,
    ) -> GradientBoostingRegressor:
        model = GradientBoostingRegressor(
            n_estimators=int(config["n_estimators"]),
            learning_rate=float(config["learning_rate"]),
            max_depth=int(config["max_depth"]),
            subsample=0.8,
            seed=seed,
        )
        return self._maybe_flatten(model, n_channels)


class SVRFamily(_WindowedRegressorFamily):
    """RBF-kernel epsilon-SVR over lag windows."""

    name = "svr"

    def search_space(
        self,
        trace_name: str = "default",
        budget: str = "paper",
        extended: bool = False,
    ) -> SearchSpace:
        hist = history_range(trace_name, budget)
        c_high = {"paper": 100.0, "reduced": 10.0, "tiny": 10.0}[budget]
        return SearchSpace(
            [
                IntParam("history_len", *hist, log=True),
                FloatParam("C", 0.1, c_high, log=True),
                FloatParam("epsilon", 1e-3, 0.2, log=True),
            ]
        )

    def build(
        self,
        config: dict,
        settings,
        seed: int,
        n_channels: int = 1,
        target_channel: int = 0,
    ) -> KernelSVR:
        model = KernelSVR(
            C=float(config["C"]),
            epsilon=float(config["epsilon"]),
            seed=seed,
        )
        return self._maybe_flatten(model, n_channels)
