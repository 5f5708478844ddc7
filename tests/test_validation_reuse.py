"""The trial evaluator scores the validation forecast the fit kept.

``LSTMRegressor.fit`` keeps its best epoch's forecast of the validation
windows, made with the very weights it restores, and
``TrialEvaluator.evaluate`` scores that forecast instead of predicting
again.  Each case below must give byte-identical MAPE and metadata
with the reuse and with a forced re-predict (the oracle evaluator in
``tests/fit_path_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.evaluation as evaluation
from repro.core import FrameworkSettings
from repro.core.data import prepare_data
from repro.core.evaluation import TrialEvaluator
from repro.models.nn import LSTMFamily
from repro.nn import LSTMRegressor
from repro.resilience import injected

from tests import fit_path_oracle as oracle


class RecordingFamily(LSTMFamily):
    """The LSTM family, recording each fit's history and counting the
    predictions made after the fit returned."""

    def __init__(self, min_delta: float | None = None):
        self.min_delta = min_delta
        self.histories: list = []
        self.predicts_after_fit = 0

    def train(self, model, X_train, y_train, X_val, y_val, config, settings,
              epochs, patience, callbacks):
        if self.min_delta is None:
            history = super().train(model, X_train, y_train, X_val, y_val,
                                    config, settings, epochs, patience,
                                    callbacks)
        else:
            history = model.fit(
                X_train, y_train, epochs=epochs,
                batch_size=int(config["batch_size"]), lr=settings.lr,
                validation=(X_val, y_val), patience=patience,
                min_delta=self.min_delta, callbacks=callbacks,
            )
        self.histories.append(history)
        predict = model.predict

        def counted(x, *args, **kwargs):
            self.predicts_after_fit += 1
            return predict(x, *args, **kwargs)

        model.predict = counted
        return history


def _series() -> np.ndarray:
    t = np.arange(240)
    noise = np.random.default_rng(7).normal(0, 2.0, 240)
    return 100.0 + 40.0 * np.sin(2 * np.pi * t / 24.0) + noise


def _evaluate(settings, batch_size, family, faults=None):
    data = prepare_data(_series(), settings)
    config = {"history_len": 6, "cell_size": 4, "num_layers": 1,
              "batch_size": batch_size}
    evaluator = TrialEvaluator(family, settings)
    args = (data.scaled, data.raw, data.scaler, config, data.i_train_end,
            data.i_val_end, data.window_cache)
    if faults is None:
        return evaluator.evaluate(*args)
    with injected(faults):
        return evaluator.evaluate(*args)


def _comparable(meta: dict) -> dict:
    return {k: v for k, v in meta.items() if k != "train_seconds"}


CASES = {
    # lr, patience, epochs, batch size, network-level min_delta, faults
    "every_epoch_improves": (1e-2, 2, 6, 8, None, None),
    "early_stop_restores_best": (5e-2, 1, 6, 32, None, None),
    "no_epoch_improves": (1e-2, 2, 6, 8, np.inf, None),
    "retry_after_nan_loss": (1e-2, 2, 6, 8, None, "nan_loss@nn.fit:1"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_reuse_matches_forced_repredict(case, monkeypatch):
    lr, patience, epochs, batch_size, min_delta, faults = CASES[case]
    settings = FrameworkSettings.tiny(
        epochs=epochs, patience=patience, lr=lr, max_retries=1
    )

    reused = RecordingFamily(min_delta)
    value, model, meta = _evaluate(settings, batch_size, reused, faults)
    with monkeypatch.context() as m:
        m.setattr(evaluation, "_validation_forecast",
                  oracle.validation_forecast)
        forced = RecordingFamily(min_delta)
        value_f, _, meta_f = _evaluate(settings, batch_size, forced, faults)

    assert np.float64(value).tobytes() == np.float64(value_f).tobytes()
    assert _comparable(meta) == _comparable(meta_f)
    assert forced.predicts_after_fit == 1

    history = reused.histories[-1]
    val_loss = np.asarray(history.val_loss)
    if case == "every_epoch_improves":
        assert np.all(np.diff(val_loss) < 0)
        assert meta["best_epoch"] == meta["epochs_run"] - 1
    elif case == "early_stop_restores_best":
        assert meta["stopped_early"]
        assert meta["best_epoch"] < meta["epochs_run"] - 1
    elif case == "no_epoch_improves":
        assert history.best_val_pred is None and meta["best_epoch"] == -1
    else:
        assert meta["attempts"] == 2 and len(reused.histories) == 2
        first, second = reused.histories
        # The failed attempt forecast too; the succeeding one is scored.
        assert first.best_val_pred is not None
        assert first.best_val_pred.tobytes() != second.best_val_pred.tobytes()
    if case == "no_epoch_improves":
        assert reused.predicts_after_fit == 1  # fell back to predict
    else:
        assert reused.predicts_after_fit == 0  # scored the kept forecast


def test_reuse_requires_the_same_validation_windows():
    """A fit validated on other windows than the ones scored predicts."""
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((40, 5)), rng.standard_normal(40)
    model = LSTMRegressor(hidden_size=3, seed=0)
    history = model.fit(X[:30], y[:30], epochs=2, validation=(X[30:], y[30:]))
    assert history.val_inputs is not None
    kept = history.best_val_pred
    other = X[30:].copy()
    got = evaluation._validation_forecast(model, history, other)
    assert got is not kept
    assert got.tobytes() == model.predict(other).tobytes()
    assert evaluation._validation_forecast(model, history, history.val_inputs) is kept


def test_kept_forecast_is_not_overwritten_by_later_predictions():
    rng = np.random.default_rng(1)
    X, y = rng.standard_normal((48, 6)), rng.standard_normal(48)
    model = LSTMRegressor(hidden_size=4, num_layers=2, seed=3)
    X_val = X[32:]
    history = model.fit(X[:32], y[:32], epochs=3, validation=(X_val, y[32:]))
    kept = history.best_val_pred
    snapshot = kept.copy()
    assert kept.tobytes() == model.predict(X_val).tobytes()
    # Same batch shape (reuses every layer's scratch), then another shape.
    model.predict(rng.standard_normal(X_val.shape))
    model.predict(rng.standard_normal((5, 6)))
    assert kept.tobytes() == snapshot.tobytes()
