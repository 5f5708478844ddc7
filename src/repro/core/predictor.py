"""The deployable predictor ``f`` produced by the LoadDynamics workflow.

Bundles the best model found by the self-optimization loop with its
min-max scaler, hyperparameters, and model-family tag.  Implements the
same one-step-ahead protocol as the baselines
(:class:`repro.baselines.base.Predictor`), so the experiment harness and
the auto-scaler treat LoadDynamics and the comparators uniformly.

Persistence is family-dispatched: the predictor directory's
``predictor.json`` records which :mod:`repro.models` family wrote the
model, and that family's ``save_model``/``load_model`` own the weight
format (npz for the recurrent families, pickle for the classical ones,
a marker file for the naive fallback), and the sha256 of each file the
family wrote, which :meth:`LoadDynamicsPredictor.load` checks.
Directories written before the family tag existed load as ``lstm`` —
the only family that existed — and ones without digests load unchecked.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.baselines.base import Predictor, split_target
from repro.core.scaling import MinMaxScaler
from repro.state import write_atomic
from repro.core.windowing import windows_for_range

__all__ = ["LoadDynamicsPredictor", "NaiveLastValueModel"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class NaiveLastValueModel:
    """Persistence model used when the whole optimization degrades.

    Drop-in for :class:`~repro.nn.network.LSTMRegressor` in the
    predictor plumbing: ``predict`` returns the last value of each
    window, which — with ``history_len=1`` hyperparameters — makes the
    predictor a plain last-value forecaster.  Returned by
    :meth:`repro.core.framework.LoadDynamics.fit` when every trial was
    infeasible, so callers always receive *some* usable predictor
    (flagged via ``FitReport.degraded``).
    """

    hidden_size = 1
    num_layers = 1
    input_size = 1
    degraded = True

    def __init__(self, target_channel: int = 0):
        # Multivariate windows carry all channels; persistence predicts
        # the last value of the *target* channel (0 for 1-D windows).
        self.target_channel = int(target_channel)

    def predict(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 3:
            x = x[:, :, self.target_channel]
        if x.ndim != 2:
            raise ValueError(f"expected (N, n) or (N, n, D) windows, got {x.shape}")
        return x[:, -1].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NaiveLastValueModel()"


class LoadDynamicsPredictor(Predictor):
    """Trained model + scaler + hyperparameters (workflow step 5)."""

    name = "loaddynamics"

    def __init__(
        self,
        model,
        scaler: MinMaxScaler,
        hyperparameters,
        validation_mape: float = float("nan"),
        family: str = "lstm",
        target_channel: int = 0,
    ):
        # Shape-consistency guard where both sides carry NN shape info
        # (the recurrent families); classical models have no cell/layer
        # notion, so there is nothing to cross-check.
        model_width = getattr(model, "hidden_size", None)
        hp_width = getattr(hyperparameters, "cell_size", None)
        if model_width is not None and hp_width is not None:
            if model_width != hp_width:
                raise ValueError("model hidden size disagrees with hyperparameters")
            if getattr(model, "num_layers", None) != getattr(
                hyperparameters, "num_layers", None
            ):
                raise ValueError("model layer count disagrees with hyperparameters")
        self.model = model
        self.scaler = scaler
        self.hyperparameters = hyperparameters
        self.validation_mape = float(validation_mape)
        self.family = str(family)
        self.min_history = hyperparameters.history_len
        # Channel plumbing: the (per-channel) scaler carries D; the
        # target channel is which column the predictor forecasts.
        self.n_channels = int(scaler.n_channels_ or 1)
        self.target_channel = int(target_channel)
        if not 0 <= self.target_channel < self.n_channels:
            raise ValueError(
                f"target_channel {target_channel} out of range for "
                f"{self.n_channels}-channel predictor"
            )
        self._target_scaler = scaler.channel(self.target_channel)

    # ------------------------------------------------------------------
    # Predictor protocol
    # ------------------------------------------------------------------
    def _split(self, values: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
        """``(windowed, target)`` views of a raw history or series.

        A D-channel predictor takes ``(steps, D)`` input and windows all
        of it; a univariate one windows the flat target series itself
        (its models see ``(batch, n)`` windows, no channels axis).
        """
        v = np.asarray(values, dtype=np.float64)
        width = v.shape[1] if v.ndim == 2 else 1
        if width != self.n_channels:
            raise ValueError(
                f"{self.n_channels}-channel predictor needs a "
                f"(steps, {self.n_channels}) {what}, got shape {v.shape}"
            )
        v, target = split_target(self, v)
        return (v if self.n_channels > 1 else target), target

    def predict_next(self, history: np.ndarray) -> float:
        """One-step-ahead prediction from the raw (unscaled) history.

        A multivariate predictor takes a 2-D ``(steps, D)`` history and
        forecasts its target channel.
        """
        h, target = self._split(history, "history")
        n = self.hyperparameters.history_len
        if h.shape[0] < n:
            return self._fallback(target)
        window = self.scaler.transform(h[-n:])[None]
        pred = float(self.model.predict(window)[0])
        return float(
            max(self._target_scaler.inverse_transform(np.array([pred]))[0], 0.0)
        )

    def predict_series(
        self, series: np.ndarray, start: int, end: int | None = None
    ) -> np.ndarray:
        """Batch one-step-ahead predictions for targets in [start, end).

        Equivalent to calling :meth:`predict_next` per interval but runs
        as one batched forward pass — this is the inference path whose
        latency the paper reports (<4.78 ms per prediction).
        """
        s, target = self._split(series, "series")
        n = self.hyperparameters.history_len
        end = s.shape[0] if end is None else end
        # copy=False: the scaler transform below materializes a fresh
        # array anyway, so the contiguous window copy would be pure waste.
        X, _ = windows_for_range(
            s, n, start, end, copy=False, target=self.target_channel
        )
        n_missing = (end - start) - X.shape[0]  # targets with short windows
        preds = np.empty(end - start)
        if X.shape[0]:
            scaled = self.scaler.transform(X)
            raw = self.model.predict(scaled)
            np.maximum(
                self._target_scaler.inverse_transform(raw),
                0.0,
                out=preds[n_missing:],
            )
        if n_missing:
            # Degenerate early targets fall back to persistence
            # (vectorized: target i gets s[i-1], target 0 gets 0).
            idx = start + np.arange(n_missing)
            preds[:n_missing] = np.where(idx > 0, target[idx - 1], 0.0)
        return preds

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Persist model + scaler + hyperparameters to a directory.

        The model's weight format is owned by its family's
        ``save_model``; ``predictor.json`` records the family so
        :meth:`load` can dispatch back, and the sha256 of every file the
        family wrote.  Each file is replaced atomically, but not all of
        them at once: a save that dies between the model file and the
        manifest leaves new weights beside the old manifest, which the
        digests let :meth:`load` refuse.  Degraded (naive-fallback)
        predictors persist too — their family writes a marker file.
        """
        from repro.models import get_family

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = get_family(self.family).save_model(self.model, directory)
        meta = {
            "family": self.family,
            "hyperparameters": self.hyperparameters.as_dict(),
            "scaler": self.scaler.state(),
            "validation_mape": self.validation_mape,
            "n_channels": self.n_channels,
            "target_channel": self.target_channel,
            "sha256": {
                name: _sha256(directory / name) for name in written or ()
            },
        }
        write_atomic(directory / "predictor.json", json.dumps(meta, indent=2))
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "LoadDynamicsPredictor":
        """Reload a saved predictor directory.

        Corruption surfaces as ordinary exceptions (JSON/zip/OS/KeyError,
        or a ValueError when a model file's sha256 differs from the one
        the manifest recorded);
        serving code that must survive a bad model on disk loads through
        :meth:`repro.serving.guard.GuardedPredictor.load`, which maps
        them all to a typed ``CorruptModelError``.  The ``model.load``
        fault site makes disk corruption injectable for chaos tests.
        """
        from repro.models import get_family
        from repro.resilience import faults as _faults

        inj = _faults.active()
        if inj is not None:
            inj.maybe_fire("model.load")
        directory = Path(directory)
        meta = json.loads((directory / "predictor.json").read_text())
        if not isinstance(meta, dict) or "scaler" not in meta or "hyperparameters" not in meta:
            raise ValueError(
                f"predictor.json in {directory} is not a predictor manifest "
                "(missing scaler/hyperparameters)"
            )
        # Manifests written before the digests existed carry none.
        for name, digest in meta.get("sha256", {}).items():
            if _sha256(directory / name) != digest:
                raise ValueError(
                    f"{name} in {directory} does not match the sha256 "
                    "predictor.json recorded for it (a save interrupted "
                    "between the model file and the manifest?)"
                )
        # Pre-family directories carry no tag; they were all LSTM.
        family = get_family(meta.get("family", "lstm"))
        model = family.load_model(directory)
        return cls(
            model=model,
            scaler=MinMaxScaler.from_state(meta["scaler"]),
            hyperparameters=family.hyperparameters(meta["hyperparameters"]),
            validation_mape=meta.get("validation_mape", float("nan")),
            family=family.name,
            # Pre-multivariate directories carry no channel keys; they
            # were all univariate (scaler state is scalar, D=1).
            target_channel=int(meta.get("target_channel", 0)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        hp = self.hyperparameters.as_dict()
        extras = ", ".join(f"{k}={v}" for k, v in hp.items() if k != "history_len")
        return (
            f"LoadDynamicsPredictor(family={self.family}, "
            f"n={hp['history_len']}{', ' + extras if extras else ''}, "
            f"val_mape={self.validation_mape:.2f}%)"
        )
