"""Tests for the LoadDynamics workflow and the deployable predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesopt import IntParam, SearchSpace
from repro.bayesopt.grid_search import GridSearch
from repro.bayesopt.random_search import RandomSearch
from repro.core import (
    FrameworkSettings,
    LoadDynamics,
    LoadDynamicsPredictor,
    LSTMHyperparameters,
    MinMaxScaler,
    search_space_for,
)
from repro.metrics import mape
from repro.nn import LSTMRegressor


@pytest.fixture
def tiny_space():
    return search_space_for("default", "tiny")


@pytest.fixture
def fitted(sine_series, tiny_space, tiny_settings):
    ld = LoadDynamics(space=tiny_space, settings=tiny_settings)
    predictor, report = ld.fit(sine_series)
    return ld, predictor, report


class TestWorkflow:
    def test_fit_returns_predictor_and_report(self, fitted):
        ld, predictor, report = fitted
        assert isinstance(predictor, LoadDynamicsPredictor)
        assert report.n_trials == ld.settings.max_iters
        assert np.isfinite(report.best_validation_mape)
        assert report.total_seconds > 0

    def test_best_is_minimum_of_trials(self, fitted):
        _, predictor, report = fitted
        feasible = [t.value for t in report.trials if t.value < 1e5]
        assert report.best_validation_mape == pytest.approx(min(feasible))

    def test_predictor_respects_selected_hyperparameters(self, fitted):
        _, predictor, report = fitted
        hp = report.best_hyperparameters
        assert predictor.model.hidden_size == hp.cell_size
        assert predictor.model.num_layers == hp.num_layers
        assert predictor.min_history == hp.history_len

    def test_learns_the_sine(self, sine_series, tiny_space):
        settings = FrameworkSettings.tiny(max_iters=6, epochs=30)
        ld = LoadDynamics(space=tiny_space, settings=settings)
        predictor, _ = ld.fit(sine_series)
        test_mape = ld.evaluate(predictor, sine_series)
        # persistence on this sine is ~12%; the tuned LSTM must beat it.
        assert test_mape < 10.0

    def test_deterministic_given_seed(self, sine_series, tiny_space):
        def run():
            ld = LoadDynamics(space=tiny_space, settings=FrameworkSettings.tiny())
            _, report = ld.fit(sine_series)
            return report.best_validation_mape

        assert run() == pytest.approx(run())

    def test_scaler_fit_on_train_only(self, tiny_space, tiny_settings):
        """Leakage guard: a huge test-split value must not change the
        scaler, hence must not change training behaviour."""
        base = np.abs(np.sin(np.arange(120.0) / 6)) * 100 + 50
        inflated = base.copy()
        inflated[-5:] *= 50.0  # extreme values only in the test split

        ld1 = LoadDynamics(space=tiny_space, settings=tiny_settings)
        _, rep1 = ld1.fit(base)
        ld2 = LoadDynamics(space=tiny_space, settings=tiny_settings)
        _, rep2 = ld2.fit(inflated)
        assert rep1.best_validation_mape == pytest.approx(
            rep2.best_validation_mape, rel=1e-9
        )

    def test_infeasible_history_degrades_gracefully(self, tiny_settings):
        """History lengths longer than the training split must be counted
        infeasible; an all-infeasible search must degrade to the naive
        last-value fallback instead of raising."""
        space = SearchSpace(
            [
                IntParam("history_len", 500, 600),
                IntParam("cell_size", 2, 4),
                IntParam("num_layers", 1, 1),
                IntParam("batch_size", 4, 8),
            ]
        )
        ld = LoadDynamics(space=space, settings=tiny_settings)
        series = np.abs(np.sin(np.arange(100.0))) + 1.0
        predictor, report = ld.fit(series)
        assert report.degraded
        assert report.degraded_reason == "no_feasible_trials"
        assert report.n_infeasible == report.n_trials == ld.settings.max_iters
        assert all(t.metadata["infeasible"] for t in report.trials)
        # The fallback is persistence: next prediction == last observation.
        assert predictor.predict_next(series) == pytest.approx(series[-1])

    def test_too_short_series_raises(self, tiny_space, tiny_settings):
        ld = LoadDynamics(space=tiny_space, settings=tiny_settings)
        with pytest.raises(ValueError, match="too short"):
            ld.fit(np.ones(5))

    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (RandomSearch, {}),
        (GridSearch, {"points_per_dim": 2, "shuffle": True, "seed": 0}),
    ])
    def test_alternative_optimizers(self, sine_series, tiny_space, tiny_settings,
                                    optimizer_cls, kwargs):
        ld = LoadDynamics(
            space=tiny_space,
            settings=tiny_settings,
            optimizer_cls=optimizer_cls,
            optimizer_kwargs=kwargs,
        )
        predictor, report = ld.fit(sine_series)
        assert report.n_trials >= 1
        assert np.isfinite(predictor.validation_mape)

    def test_trial_values_array(self, fitted):
        _, _, report = fitted
        vals = report.trial_values()
        assert vals.shape == (report.n_trials,)


class TestPredictor:
    def test_predict_next_scalar(self, fitted, sine_series):
        _, predictor, _ = fitted
        v = predictor.predict_next(sine_series)
        assert np.isfinite(v) and v >= 0.0

    def test_predict_next_short_history_fallback(self, fitted):
        _, predictor, _ = fitted
        short = np.array([42.0])
        assert predictor.predict_next(short) == 42.0

    def test_predict_series_matches_predict_next(self, fitted, sine_series):
        """The batched path agrees with the per-interval path to the
        declared tolerance class (batched GEMM vs one-row GEMV rounding)."""
        _, predictor, _ = fitted
        start = 210
        batched = predictor.predict_series(sine_series, start)
        stepped = np.array(
            [predictor.predict_next(sine_series[:i]) for i in range(start, len(sine_series))]
        )
        np.testing.assert_allclose(batched, stepped, rtol=1e-12, atol=0)

    def test_predict_series_full_coverage(self, fitted, sine_series):
        _, predictor, _ = fitted
        out = predictor.predict_series(sine_series, 200, 220)
        assert out.shape == (20,)
        assert np.all(np.isfinite(out))

    def test_predictions_nonnegative(self, fitted):
        _, predictor, _ = fitted
        tiny = np.full(predictor.min_history + 1, 1e-6)
        assert predictor.predict_next(tiny) >= 0.0

    def test_save_load_roundtrip(self, fitted, sine_series, tmp_path):
        _, predictor, _ = fitted
        predictor.save(tmp_path / "p")
        loaded = LoadDynamicsPredictor.load(tmp_path / "p")
        assert loaded.hyperparameters == predictor.hyperparameters
        assert loaded.predict_next(sine_series) == pytest.approx(
            predictor.predict_next(sine_series)
        )

    def test_constructor_consistency_checks(self, rng):
        model = LSTMRegressor(hidden_size=4, num_layers=1)
        scaler = MinMaxScaler().fit(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="hidden size"):
            LoadDynamicsPredictor(
                model, scaler, LSTMHyperparameters(4, 8, 1, 8)
            )
        with pytest.raises(ValueError, match="layer count"):
            LoadDynamicsPredictor(
                model, scaler, LSTMHyperparameters(4, 4, 2, 8)
            )


class TestEvaluate:
    def test_evaluate_uses_last_20pct(self, fitted, sine_series):
        ld, predictor, _ = fitted
        m = ld.evaluate(predictor, sine_series)
        start = int(round(0.8 * len(sine_series)))
        manual = mape(
            predictor.predict_series(sine_series, start), sine_series[start:]
        )
        assert m == pytest.approx(manual)
