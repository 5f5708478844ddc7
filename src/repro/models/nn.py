"""Recurrent model families: stacked LSTM (paper default) and GRU.

Both tune the four Table III hyperparameters (history length, cell
size, layer count, batch size) and train through
:class:`~repro.nn.network.LSTMRegressor`, which hosts either cell kind
over the same fast-path kernels.  ``lstm`` is the framework default —
its ``build``/``train`` calls are argument-for-argument identical to
the pre-refactor monolith, which is what keeps seeded default-path fits
bit-for-bit reproducible (regression-tested in
``tests/test_equivalence.py``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.bayesopt.space import SearchSpace
from repro.core.config import LSTMHyperparameters, search_space_for
from repro.models.base import ModelFamily
from repro.nn.network import LSTMRegressor
from repro.nn.serialization import load_regressor, save_regressor

__all__ = ["LSTMFamily", "GRUFamily"]


class _RecurrentFamily(ModelFamily):
    """Shared plumbing for the LSTM/GRU cell kinds."""

    kind = "nn"
    cell = "lstm"

    def search_space(
        self,
        trace_name: str = "default",
        budget: str = "paper",
        extended: bool = False,
    ) -> SearchSpace:
        # Table III, identically for both cell kinds (the paper tunes the
        # same four hyperparameters regardless of the recurrent cell).
        return search_space_for(trace_name, budget, extended=extended)

    def build(
        self,
        config: dict,
        settings,
        seed: int,
        n_channels: int = 1,
        target_channel: int = 0,
    ) -> LSTMRegressor:
        # Multichannel windows feed the first layer's input projection
        # directly (input_size=D); the target channel is encoded in the
        # training labels, not the model.  For n_channels == 1 this is
        # argument-for-argument the pre-multivariate construction.
        return LSTMRegressor(
            hidden_size=int(config["cell_size"]),
            num_layers=int(config["num_layers"]),
            input_size=int(n_channels),
            seed=seed,
            cell=self.cell,
        )

    def train(
        self,
        model: LSTMRegressor,
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
        return model.fit(
            X_train,
            y_train,
            epochs=epochs,
            batch_size=int(config["batch_size"]),
            lr=settings.lr,
            # Extended spaces (Section V) tune these; plain Table III
            # spaces fall back to the fixed settings.
            optimizer=str(config.get("optimizer", settings.optimizer)),
            loss=str(config.get("loss", settings.loss)),
            clip_norm=settings.clip_norm,
            validation=(X_val, y_val),
            patience=patience,
            callbacks=callbacks,
        )

    def hyperparameters(self, config: dict) -> LSTMHyperparameters:
        return LSTMHyperparameters.from_dict(config)

    def save_model(self, model: LSTMRegressor, directory: Path) -> list[str]:
        save_regressor(model, directory / "model.npz")
        return ["model.npz"]

    def load_model(self, directory: Path) -> LSTMRegressor:
        return load_regressor(directory / "model.npz")


class LSTMFamily(_RecurrentFamily):
    """The paper's stacked-LSTM family (framework default)."""

    name = "lstm"
    cell = "lstm"


class GRUFamily(_RecurrentFamily):
    """GRU variant: 3 gates instead of 4, same search space."""

    name = "gru"
    cell = "gru"
