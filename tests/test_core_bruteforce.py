"""Tests for the parallel brute-force search."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import FrameworkSettings, search_space_for
from repro.core.bruteforce import BruteForceResult, brute_force_search
from repro.core.data import prepare_data
from repro.core.evaluation import TrialEvaluator
from repro.models import get_family
from repro.nn.network import LSTMRegressor


@pytest.fixture(scope="module")
def sweep():
    t = np.arange(240)
    rng = np.random.default_rng(7)
    series = 100.0 + 40.0 * np.sin(2 * np.pi * t / 24.0) + rng.normal(0, 2.0, 240)
    fit = LSTMRegressor.fit
    n_fits = []

    def counting_fit(self, *args, **kwargs):
        n_fits.append(1)
        return fit(self, *args, **kwargs)

    with mock.patch.object(LSTMRegressor, "fit", counting_fit):
        result = brute_force_search(
            series,
            search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(epochs=8),
            points_per_dim=2,
            max_trials=8,
            n_workers=1,
        )
    return series, result, len(n_fits)


def _retrain_winner(series, result, settings):
    """Train the sweep's winning config from scratch, outside the
    search: the oracle for the predictor the sweep returns."""
    data = prepare_data(series, settings, window_cache=False)
    family = get_family("lstm")
    config = result.best_hyperparameters.as_dict()
    value, model, _meta = TrialEvaluator(family, settings).evaluate(
        data.scaled, data.raw, data.scaler, config,
        data.i_train_end, data.i_val_end,
    )
    assert model is not None
    return family.wrap_predictor(model, data.scaler, config, value)


def _param_hex(predictor) -> list[str]:
    return [p.tobytes().hex() for p in predictor.model.params]


class TestBruteForce:
    def test_evaluates_requested_trials(self, sweep):
        _, result, _ = sweep
        assert result.n_evaluated == 8
        assert np.isfinite(result.best_validation_mape)

    def test_best_is_minimum(self, sweep):
        _, result, _ = sweep
        feasible = [v for _, v in result.evaluations if v < 1e5]
        assert result.best_validation_mape == pytest.approx(min(feasible))

    def test_serial_parallel_equivalence(self, sweep):
        series, serial, _ = sweep
        parallel = brute_force_search(
            series,
            search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(epochs=8),
            points_per_dim=2,
            max_trials=8,
            n_workers=2,
        )
        assert parallel.best_hyperparameters == serial.best_hyperparameters
        assert parallel.best_validation_mape == pytest.approx(
            serial.best_validation_mape
        )
        assert _param_hex(parallel.predictor) == _param_hex(serial.predictor)

    def test_predictor_is_the_trained_winner(self, sweep):
        # The sweep trains each of its 8 grid points once and returns the
        # winner's model; a from-scratch retrain of the winning config
        # gives the same bytes.
        series, result, n_fits = sweep
        assert n_fits == 8
        predictor = result.predictor
        assert predictor.hyperparameters == result.best_hyperparameters
        assert predictor.validation_mape == result.best_validation_mape
        oracle = _retrain_winner(
            series, result, FrameworkSettings.tiny(epochs=8)
        )
        assert _param_hex(predictor) == _param_hex(oracle)
        assert (predictor.predict_next(series).hex()
                == oracle.predict_next(series).hex())

    def test_too_short_series(self):
        with pytest.raises(ValueError, match="too short"):
            brute_force_search(
                np.ones(6), search_space_for("default", "tiny"),
                settings=FrameworkSettings.tiny(),
            )

    def test_trial_deadline_applies_to_every_grid_point(self, sweep):
        # The sweep runs the framework's own trial evaluation, so the
        # settings' per-trial deadline holds: at 1 µs every grid point
        # times out and no configuration is feasible.
        series, _, _ = sweep
        with pytest.raises(RuntimeError, match="no feasible configuration"):
            brute_force_search(
                series,
                search_space_for("default", "tiny"),
                settings=FrameworkSettings.tiny(
                    epochs=8, trial_timeout_s=1e-6, max_retries=0
                ),
                points_per_dim=2,
                max_trials=4,
                n_workers=1,
            )

    def test_result_dataclass(self):
        from repro.core import LSTMHyperparameters

        r = BruteForceResult(
            best_hyperparameters=LSTMHyperparameters(2, 2, 1, 4),
            best_validation_mape=10.0,
            evaluations=[({}, 10.0)],
        )
        assert r.n_evaluated == 1
