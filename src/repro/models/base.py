"""The :class:`ModelFamily` protocol — what "generic" means in code.

The paper claims a *generic* self-optimized prediction framework; the
outer loop (split → scale → window → suggest → train → validate → tell →
select) never needs to know what kind of model a trial trains.  A model
family packages everything that *is* family-specific:

* ``search_space`` — the hyperparameter box the optimizer explores
  (Table III for the recurrent families, regressor-specific boxes for
  the classical ones); every space must include ``history_len``, the
  one universal hyperparameter (Eq. 1 windowing).
* ``build`` / ``train`` — construct and fit one candidate model on the
  windowed training split.  ``train`` returns a
  :class:`~repro.nn.network.TrainingHistory` for epoch-based models (so
  the evaluator can detect divergence and report early stopping) or
  ``None`` for single-shot fits.
* ``hyperparameters`` — turn a config dict into the report/predictor
  hyperparameter object.
* ``wrap_predictor`` — package a winning model as a deployable
  :class:`~repro.core.predictor.LoadDynamicsPredictor`.
* ``save_model`` / ``load_model`` — the model's persistence format
  inside a saved predictor directory.

Families register themselves in :mod:`repro.models.registry`;
``LoadDynamics(family="...")`` and ``repro fit --family ...`` look them
up by name.  Layering: this package may depend on the substrate layers
(``nn``, ``ml``, ``baselines``) and on ``core`` data plumbing, but never
on ``cli`` or ``experiments`` (enforced by ``scripts/check_layering.py``).
"""

from __future__ import annotations

import abc
from pathlib import Path

import numpy as np

from repro.bayesopt.space import SearchSpace

__all__ = ["ModelFamily"]


class ModelFamily(abc.ABC):
    """One pluggable model kind behind the self-optimization loop."""

    #: Registry key (``LoadDynamics(family=name)``, CLI ``--family``).
    name: str = "family"

    #: Coarse category shown by ``repro families``: "nn", "classical",
    #: or "fallback".
    kind: str = "nn"

    # ------------------------------------------------------------------
    # search space
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def search_space(
        self,
        trace_name: str = "default",
        budget: str = "paper",
        extended: bool = False,
    ) -> SearchSpace:
        """Hyperparameter space for a trace/budget (must include
        ``history_len``).  ``extended`` adds the §V extras where the
        family supports them and is ignored otherwise."""

    # ------------------------------------------------------------------
    # trial training
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build(
        self,
        config: dict,
        settings,
        seed: int,
        n_channels: int = 1,
        target_channel: int = 0,
    ):
        """Construct a fresh, untrained model for one config.

        ``seed`` is the retry-aware weight seed chosen by the trial
        evaluator (:meth:`repro.resilience.retry.RetryPolicy.seed_for`).

        ``n_channels``/``target_channel`` describe the window tensors a
        multivariate fit will train on — ``(N, n, n_channels)`` windows
        predicting ``target_channel``.  The evaluator only passes them
        when ``n_channels > 1``, so families written before the
        multivariate pipeline (three-argument ``build``) keep working
        for every univariate fit.
        """

    @abc.abstractmethod
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
        """Fit ``model`` on the windowed training split.

        Returns a :class:`~repro.nn.network.TrainingHistory` for
        epoch-based families (``callbacks`` receive per-epoch calls, so
        trial deadlines can interrupt training) or ``None`` for
        single-shot fits (where ``epochs``/``patience``/``callbacks``
        do not apply).  May raise the numeric failures the evaluator's
        retry policy handles (``FloatingPointError``, ``OverflowError``,
        ``numpy.linalg.LinAlgError``).
        """

    # ------------------------------------------------------------------
    # reporting / deployment
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def hyperparameters(self, config: dict):
        """Hyperparameter object (``as_dict``-able, with ``history_len``)
        for reports and predictor metadata."""

    def wrap_predictor(
        self,
        model,
        scaler,
        config: dict,
        validation_mape: float,
        target_channel: int = 0,
    ):
        """Package a trained model as a deployable predictor (step 5).

        The channel count is carried by the (per-channel) scaler;
        ``target_channel`` selects the predicted channel of a
        multivariate fit.
        """
        from repro.core.predictor import LoadDynamicsPredictor

        return LoadDynamicsPredictor(
            model=model,
            scaler=scaler,
            hyperparameters=self.hyperparameters(config),
            validation_mape=validation_mape,
            family=self.name,
            target_channel=target_channel,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def save_model(self, model, directory: Path) -> list[str]:
        """Persist the model's weights/state into a predictor directory,
        each file through :func:`repro.state.write_atomic`, and return
        the names of the files written (``predictor.json`` records
        their digests)."""

    @abc.abstractmethod
    def load_model(self, directory: Path):
        """Reconstruct a model previously written by :meth:`save_model`."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind!r})"
