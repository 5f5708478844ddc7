"""Tests for core data plumbing: scaling, windowing, config/search spaces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    LSTMHyperparameters,
    FrameworkSettings,
    LoadDynamics,
    MinMaxScaler,
    make_windows,
    search_space_for,
    windows_for_range,
)
from repro.core.data import prepare_data


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self, rng):
        v = rng.uniform(100, 900, 50)
        s = MinMaxScaler().fit(v)
        out = s.transform(v)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    @given(arrays(np.float64, st.integers(2, 50), elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=50, deadline=None)
    def test_inverse_is_exact(self, v):
        s = MinMaxScaler().fit(v)
        np.testing.assert_allclose(
            s.inverse_transform(s.transform(v)), v, atol=1e-6, rtol=1e-9
        )

    def test_out_of_range_values_not_clipped(self):
        s = MinMaxScaler().fit(np.array([0.0, 10.0]))
        assert s.transform(np.array([20.0]))[0] == pytest.approx(2.0)
        assert s.inverse_transform(np.array([2.0]))[0] == pytest.approx(20.0)

    def test_constant_series(self):
        s = MinMaxScaler().fit(np.full(5, 3.0))
        out = s.transform(np.full(5, 3.0))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(s.inverse_transform(out), 3.0)

    def test_custom_range(self):
        s = MinMaxScaler(feature_range=(-1.0, 1.0)).fit(np.array([0.0, 4.0]))
        np.testing.assert_allclose(s.transform(np.array([0.0, 2.0, 4.0])), [-1, 0, 1])

    def test_state_roundtrip(self):
        s = MinMaxScaler().fit(np.array([2.0, 8.0]))
        s2 = MinMaxScaler.from_state(s.state())
        v = np.array([3.5, 9.9])
        np.testing.assert_array_equal(s.transform(v), s2.transform(v))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.zeros(2))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            MinMaxScaler(feature_range=(1.0, 1.0))

    def test_empty_fit(self):
        with pytest.raises(ValueError):
            MinMaxScaler().fit(np.array([]))


class TestWindowing:
    def test_make_windows_contents(self):
        s = np.arange(6.0)
        X, y = make_windows(s, 2)
        np.testing.assert_array_equal(X, [[0, 1], [1, 2], [2, 3], [3, 4]])
        np.testing.assert_array_equal(y, [2, 3, 4, 5])

    def test_make_windows_count(self):
        X, y = make_windows(np.arange(100.0), 10)
        assert X.shape == (90, 10) and y.shape == (90,)

    def test_make_windows_too_short(self):
        with pytest.raises(ValueError, match="no windows"):
            make_windows(np.arange(5.0), 5)

    def test_make_windows_invalid_n(self):
        with pytest.raises(ValueError):
            make_windows(np.arange(5.0), 0)

    def test_windows_for_range_targets(self):
        s = np.arange(20.0)
        X, y = windows_for_range(s, 3, 10, 15)
        np.testing.assert_array_equal(y, [10, 11, 12, 13, 14])
        np.testing.assert_array_equal(X[0], [7, 8, 9])

    def test_windows_cross_split_boundary(self):
        """Validation windows may reach back into training data (Fig. 7:
        the series is continuous)."""
        s = np.arange(20.0)
        X, y = windows_for_range(s, 8, 10, 12)
        np.testing.assert_array_equal(X[0], np.arange(2.0, 10.0))

    def test_short_prefix_targets_dropped(self):
        s = np.arange(10.0)
        X, y = windows_for_range(s, 5, 2, 8)
        # Targets 2,3,4 lack a full 5-window; first usable target is 5.
        np.testing.assert_array_equal(y, [5, 6, 7])

    def test_empty_result(self):
        X, y = windows_for_range(np.arange(10.0), 9, 2, 5)
        assert X.shape == (0, 9) and y.shape == (0,)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            windows_for_range(np.arange(10.0), 3, 8, 5)

    @given(
        n=st.integers(1, 10),
        start=st.integers(1, 40),
        length=st.integers(50, 80),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_target_consistency(self, n, start, length):
        """Every (window, target) pair satisfies X[j] = s[i-n:i], y[j]=s[i]."""
        s = np.arange(float(length))
        X, y = windows_for_range(s, n, start)
        for xj, yj in zip(X, y, strict=True):
            i = int(yj)
            np.testing.assert_array_equal(xj, s[i - n : i])


class TestConfig:
    def test_table3_paper_ranges(self):
        space = search_space_for("gl", "paper")
        assert space["history_len"].low == 1 and space["history_len"].high == 512
        assert space["cell_size"].high == 100
        assert space["num_layers"].high == 5
        assert space["batch_size"].low == 16 and space["batch_size"].high == 1024

    def test_table3_facebook_ranges(self):
        space = search_space_for("fb", "paper")
        assert space["history_len"].high == 100
        assert space["cell_size"].high == 50
        assert space["batch_size"].low == 8 and space["batch_size"].high == 128

    def test_budget_ordering(self):
        for trace in ("gl", "fb"):
            paper = search_space_for(trace, "paper")
            reduced = search_space_for(trace, "reduced")
            assert reduced["history_len"].high <= paper["history_len"].high
            assert reduced["cell_size"].high <= paper["cell_size"].high

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            search_space_for("gl", "huge")

    def test_hyperparameters_validation(self):
        with pytest.raises(ValueError):
            LSTMHyperparameters(0, 4, 1, 8)
        with pytest.raises(ValueError):
            LSTMHyperparameters(4, 4, 0, 8)

    def test_hyperparameters_dict_roundtrip(self):
        hp = LSTMHyperparameters(12, 30, 2, 64)
        assert LSTMHyperparameters.from_dict(hp.as_dict()) == hp

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            FrameworkSettings(max_iters=0)
        with pytest.raises(ValueError):
            FrameworkSettings(train_frac=0.8, val_frac=0.3)
        with pytest.raises(ValueError):
            FrameworkSettings(epochs=0)

    def test_settings_presets(self):
        r = FrameworkSettings.reduced()
        t = FrameworkSettings.tiny()
        assert t.max_iters < r.max_iters < FrameworkSettings().max_iters
        custom = FrameworkSettings.reduced(max_iters=3)
        assert custom.max_iters == 3


class TestPrepareData:
    def test_univariate_series_refuses_other_target_channel(self, sine_series):
        """A 1-D series is its own target, as ``traces.load`` says."""
        with pytest.raises(ValueError, match="must be 0 for a 1-D trace"):
            prepare_data(sine_series, FrameworkSettings.tiny(), target_channel=3)
        with pytest.raises(ValueError, match="must be 0 for a 1-D trace"):
            LoadDynamics(settings=FrameworkSettings.tiny()).fit(
                sine_series, target_channel=3
            )
