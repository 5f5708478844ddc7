"""The fallback family: last-value persistence.

Backs the graceful-degradation path — when every trial of a fit is
infeasible, :meth:`repro.core.framework.LoadDynamics.fit` returns a
:class:`~repro.core.predictor.NaiveLastValueModel` predictor tagged
with this family, which also makes degraded predictors *persistable*
(the model has no weights; its save format is a marker file).  It is
registered like any other family, so a degraded predictor directory
round-trips through the same ``save``/``load`` machinery.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.bayesopt.space import IntParam, SearchSpace
from repro.core.config import LSTMHyperparameters
from repro.core.predictor import NaiveLastValueModel
from repro.models.base import ModelFamily
from repro.state import write_atomic

__all__ = ["NaiveFamily"]

_MODEL_FILE = "model.json"


class NaiveFamily(ModelFamily):
    """Persistence (last value) as a degenerate one-point family."""

    name = "naive"
    kind = "fallback"

    def search_space(
        self,
        trace_name: str = "default",
        budget: str = "paper",
        extended: bool = False,
    ) -> SearchSpace:
        # One point: there is nothing to optimize about persistence.
        return SearchSpace([IntParam("history_len", 1, 1)])

    def build(
        self,
        config: dict,
        settings,
        seed: int,
        n_channels: int = 1,
        target_channel: int = 0,
    ) -> NaiveLastValueModel:
        return NaiveLastValueModel(target_channel=target_channel)

    def train(
        self,
        model: NaiveLastValueModel,
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
        return None  # nothing to train

    def hyperparameters(self, config: dict) -> LSTMHyperparameters:
        # Degraded predictors carry the degenerate LSTM-shaped
        # hyperparameters the framework has always reported.
        d = {"history_len": 1, "cell_size": 1, "num_layers": 1, "batch_size": 1}
        d.update(config)
        return LSTMHyperparameters.from_dict(d)

    def save_model(self, model: NaiveLastValueModel, directory: Path) -> list[str]:
        target = int(getattr(model, "target_channel", 0))
        write_atomic(
            directory / _MODEL_FILE,
            '{"type": "naive-last-value", "target_channel": %d}\n' % target,
        )
        return [_MODEL_FILE]

    def load_model(self, directory: Path) -> NaiveLastValueModel:
        meta = json.loads((directory / _MODEL_FILE).read_text())
        return NaiveLastValueModel(target_channel=int(meta.get("target_channel", 0)))
