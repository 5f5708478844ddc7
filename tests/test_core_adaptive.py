"""Tests for the online adaptive variant and the extended search space
(paper Section V features)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import walk_forward
from repro.core import (
    AdaptiveLoadDynamics,
    FrameworkSettings,
    LoadDynamics,
    search_space_for,
)
from repro.metrics import mape


def regime_change_series(n1: int = 120, n2: int = 120, seed: int = 5) -> np.ndarray:
    """A workload whose pattern flips completely at n1: slow sine →
    faster, 5x larger sine (the Section V failure scenario)."""
    rng = np.random.default_rng(seed)
    t1 = np.arange(n1)
    a = 100 + 30 * np.sin(2 * np.pi * t1 / 24) + rng.normal(0, 2, n1)
    t2 = np.arange(n2)
    b = 500 + 150 * np.sin(2 * np.pi * t2 / 12) + rng.normal(0, 10, n2)
    return np.concatenate([a, b])


@pytest.fixture
def adaptive():
    return AdaptiveLoadDynamics(
        space=search_space_for("default", "tiny"),
        settings=FrameworkSettings.tiny(max_iters=3, epochs=10),
        drift_window=6,
        drift_factor=2.0,
        min_refit_gap=10,
    )


class TestAdaptive:
    def test_initial_fit_happens_lazily(self, adaptive, sine_series):
        assert adaptive.predictor is None
        adaptive.fit(sine_series[:100])
        assert adaptive.predictor is not None
        assert adaptive.n_refits == 1

    def test_no_refit_on_stable_pattern(self, adaptive, sine_series):
        walk_forward(adaptive, sine_series, 120, 180, refit_every=1)
        assert adaptive.n_refits == 1  # only the initial fit

    def test_refit_triggered_by_regime_change(self, adaptive):
        series = regime_change_series()
        walk_forward(adaptive, series, 100, 180, refit_every=1)
        assert adaptive.n_refits >= 2  # drift detected and retrained
        # Retrains must happen after the change point.
        assert all(n > 120 for n in adaptive.refit_history[1:])

    def test_adaptation_beats_frozen_predictor(self):
        """After the regime change, the adaptive variant must beat a
        predictor frozen on the old pattern — the Section V motivation."""
        series = regime_change_series()
        settings = FrameworkSettings.tiny(max_iters=3, epochs=10)
        space = search_space_for("default", "tiny")

        frozen, _ = LoadDynamics(space=space, settings=settings).fit(series[:120])
        frozen_preds = frozen.predict_series(series, 170)

        adaptive = AdaptiveLoadDynamics(
            space=space, settings=settings,
            drift_window=6, drift_factor=2.0, min_refit_gap=10,
        )
        adaptive_preds = walk_forward(adaptive, series, 100, refit_every=1)[70:]

        frozen_mape = mape(frozen_preds, series[170:])
        adaptive_mape = mape(adaptive_preds, series[170:])
        assert adaptive.n_refits >= 2
        assert adaptive_mape < frozen_mape

    def test_cooldown_respected(self):
        adaptive = AdaptiveLoadDynamics(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=2, epochs=5),
            drift_window=4,
            drift_factor=1.5,
            min_refit_gap=50,
        )
        series = regime_change_series()
        walk_forward(adaptive, series, 100, 160, refit_every=1)
        # With a 50-interval cool-down at most one retrain fits in 60 steps.
        assert adaptive.n_refits <= 2

    def test_series_restart_resets(self, adaptive, sine_series):
        adaptive.fit(sine_series[:150])
        assert adaptive.n_refits == 1
        adaptive.fit(sine_series[:60])  # shorter → treated as a new series
        assert adaptive.n_refits == 1  # re-initialized fresh fit
        assert adaptive.refit_history == [60]

    def test_predict_next_without_fit(self, adaptive, sine_series):
        v = adaptive.predict_next(sine_series[:100])
        assert np.isfinite(v)

    def test_univariate_history_refits_any_target_channel(self, sine_series):
        """A 1-D history is its own target, so a multivariate
        ``target_channel`` setting still refits on it."""
        adaptive = AdaptiveLoadDynamics(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=2, epochs=5),
            target_channel=2,
        )
        adaptive.fit(sine_series[:100])
        assert adaptive.predictor is not None
        assert adaptive.predictor.target_channel == 0

    def test_short_history_fallback(self, adaptive):
        assert adaptive.predict_next(np.array([5.0, 6.0])) == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLoadDynamics(drift_window=1)
        with pytest.raises(ValueError):
            AdaptiveLoadDynamics(drift_factor=1.0)
        with pytest.raises(ValueError):
            AdaptiveLoadDynamics(min_refit_gap=0)


class TestRefitResilience:
    def _adaptive(self, **overrides):
        kwargs = dict(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=2, epochs=5),
            drift_window=4,
            drift_factor=1.5,
            min_refit_gap=10,
            refit_retries=0,
        )
        kwargs.update(overrides)
        return AdaptiveLoadDynamics(**kwargs)

    def test_refit_crash_keeps_incumbent(self):
        from repro import obs
        from repro.resilience import faults

        adaptive = self._adaptive()
        series = regime_change_series()
        sink = obs.add_sink(obs.MemorySink())
        try:
            # First fit succeeds; the drift-triggered refit crashes.
            with faults.injected("boom@adaptive.refit:2"):
                preds = walk_forward(adaptive, series, 100, 160, refit_every=1)
        finally:
            obs.remove_sink(sink)
        assert adaptive.predictor is not None, "incumbent must keep serving"
        assert adaptive.failed_refits >= 1
        assert np.all(np.isfinite(preds))
        failures = sink.by_name("adaptive.refit_failed")
        assert failures and failures[0]["has_incumbent"]

    def test_initial_fit_failure_still_serves(self):
        from repro.resilience import faults

        adaptive = self._adaptive()
        series = regime_change_series()
        with faults.injected("boom@adaptive.refit:*"):
            preds = walk_forward(adaptive, series, 100, 130, refit_every=1)
        assert adaptive.predictor is None
        assert adaptive.failed_refits >= 1
        # Persistence keeps the loop alive without any model.
        assert np.all(np.isfinite(preds))

    def test_failed_refit_applies_cooldown(self):
        from repro.resilience import faults

        adaptive = self._adaptive(min_refit_gap=200)
        series = regime_change_series()
        with faults.injected("boom@adaptive.refit:*"):
            walk_forward(adaptive, series, 100, 160, refit_every=1)
        # Without the cool-down every interval would retry the fit.
        assert adaptive.failed_refits == 1

    def test_refit_retries_use_fresh_seed(self):
        from repro.resilience import faults

        adaptive = self._adaptive(refit_retries=1)
        series = regime_change_series()
        # Only the very first fit attempt crashes; the in-loop retry
        # (reseeded) succeeds, so no failure is recorded.
        with faults.injected("boom@adaptive.refit:1"):
            walk_forward(adaptive, series, 100, 120, refit_every=1)
        assert adaptive.predictor is not None
        assert adaptive.failed_refits == 0

    def test_refit_deadline_keeps_incumbent(self):
        adaptive = self._adaptive(refit_deadline_s=1e-6)
        series = regime_change_series()
        adaptive.fit(series[:100])  # initial fit: no incumbent, deadline waived
        assert adaptive.predictor is not None
        incumbent = adaptive.predictor
        walk_forward(adaptive, series, 100, 160, refit_every=1)
        # Every post-initial refit blows the microsecond deadline: the
        # late result is discarded and the incumbent keeps serving.
        assert adaptive.predictor is incumbent
        assert adaptive.failed_refits >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLoadDynamics(refit_retries=-1)
        with pytest.raises(ValueError):
            AdaptiveLoadDynamics(refit_deadline_s=0.0)


class TestExtendedSpace:
    def test_extended_space_has_six_dims(self):
        space = search_space_for("gl", "reduced", extended=True)
        assert space.names == [
            "history_len", "cell_size", "num_layers", "batch_size",
            "loss", "optimizer",
        ]

    def test_extended_configs_sampled_valid(self, rng):
        space = search_space_for("gl", "tiny", extended=True)
        for cfg in space.sample(rng, 10):
            assert cfg["loss"] in ("mse", "mae", "huber")
            assert cfg["optimizer"] in ("adam", "rmsprop", "sgd")

    def test_framework_trains_with_extended_space(self, sine_series):
        ld = LoadDynamics(
            space=search_space_for("default", "tiny", extended=True),
            settings=FrameworkSettings.tiny(max_iters=4, epochs=8),
        )
        predictor, report = ld.fit(sine_series)
        assert np.isfinite(report.best_validation_mape)
        # The winning trial's config carries the extended keys.
        best = min(report.trials, key=lambda t: t.value)
        assert "loss" in best.config and "optimizer" in best.config
