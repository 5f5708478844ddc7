"""Tests for the parallel brute-force search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FrameworkSettings, search_space_for
from repro.core.bruteforce import BruteForceResult, brute_force_search, fit_best


@pytest.fixture(scope="module")
def sweep(request):
    t = np.arange(240)
    rng = np.random.default_rng(7)
    series = 100.0 + 40.0 * np.sin(2 * np.pi * t / 24.0) + rng.normal(0, 2.0, 240)
    result = brute_force_search(
        series,
        search_space_for("default", "tiny"),
        settings=FrameworkSettings.tiny(epochs=8),
        points_per_dim=2,
        max_trials=8,
        n_workers=1,
    )
    return series, result


class TestBruteForce:
    def test_evaluates_requested_trials(self, sweep):
        _, result = sweep
        assert result.n_evaluated == 8
        assert np.isfinite(result.best_validation_mape)

    def test_best_is_minimum(self, sweep):
        _, result = sweep
        feasible = [v for _, v in result.evaluations if v < 1e5]
        assert result.best_validation_mape == pytest.approx(min(feasible))

    def test_serial_parallel_equivalence(self, sweep):
        series, serial = sweep
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

    def test_fit_best_returns_predictor(self, sweep):
        series, result = sweep
        predictor = fit_best(series, result, settings=FrameworkSettings.tiny(epochs=8))
        assert predictor.hyperparameters == result.best_hyperparameters
        assert np.isfinite(predictor.predict_next(series))

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
        series, _ = sweep
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
