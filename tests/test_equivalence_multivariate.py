"""The multivariate refactor's central promise, pinned from both sides.

Side one — **D=1 is bit-for-bit unchanged**: every stage the channel
dimension was threaded through (``prepare_data`` scaling + windowing,
the ``forward_inference`` fast path, an end-to-end seeded fit's
``predict_series``/``predict_next``) is replayed against hex-encoded
float64 recordings made *before* the refactor
(``tests/data/equivalence_pipeline.json``, written by
``scripts/make_pipeline_fixtures.py``).  Comparison is on raw bytes —
no tolerances.

Side two — **D>1 is self-consistent**: multivariate windowing equals
stacked per-channel univariate windowing, the per-channel scaler
round-trips and agrees with its scalar sub-scalers (hypothesis
properties), and an (N, D) series flows through fit → evaluate →
persist → reload → guarded serving end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    FrameworkSettings,
    LoadDynamics,
    LoadDynamicsPredictor,
    MinMaxScaler,
    make_windows,
    search_space_for,
    windows_for_range,
)
from repro.core.data import prepare_data
from repro.nn.network import LSTMRegressor

FIXTURE = Path(__file__).parent / "data" / "equivalence_pipeline.json"


def hex64(a: np.ndarray) -> str:
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes().hex()


def fixture_series() -> np.ndarray:
    t = np.arange(240)
    rng = np.random.default_rng(7)
    return 100.0 + 40.0 * np.sin(2 * np.pi * t / 24.0) + rng.normal(0, 2.0, 240)


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


# ----------------------------------------------------------------------
# side one: recorded D=1 equivalence
# ----------------------------------------------------------------------
class TestRecordedUnivariateEquivalence:
    def test_prepare_data_bitwise(self, recorded):
        rec = recorded["prepare_data"]
        prepared = prepare_data(fixture_series(), FrameworkSettings.tiny())
        assert prepared.i_train_end == rec["i_train_end"]
        assert prepared.i_val_end == rec["i_val_end"]
        assert prepared.scaler.state() == rec["scaler_state"]
        assert hex64(prepared.scaled) == rec["scaled"]
        assert prepared.n_channels == 1 and prepared.target_channel == 0
        for n_str, w in rec["windows"].items():
            X_train, y_train, X_val, y_val = prepared.window_cache.get(int(n_str))
            assert list(X_train.shape) == w["X_train_shape"]
            assert hex64(X_train) == w["X_train"]
            assert hex64(y_train) == w["y_train"]
            assert list(X_val.shape) == w["X_val_shape"]
            assert hex64(X_val) == w["X_val"]
            assert hex64(y_val) == w["y_val"]

    def test_forward_inference_bitwise(self, recorded):
        rec = recorded["forward_inference"]
        model = LSTMRegressor(
            hidden_size=rec["hidden_size"],
            num_layers=rec["num_layers"],
            seed=rec["seed"],
        )
        rng = np.random.default_rng(rec["input_seed"])
        x = rng.uniform(0.0, 1.0, size=tuple(rec["batch_shape"]))
        assert hex64(model.predict(x)) == rec["output"]

    def test_fit_predictions_bitwise(self, recorded):
        rec = recorded["fit"]
        series = fixture_series()
        ld = LoadDynamics(
            space=search_space_for("default", "tiny"),
            settings=FrameworkSettings.tiny(max_iters=rec["max_iters"]),
        )
        predictor, report = ld.fit(series)
        assert report.best_hyperparameters.as_dict() == rec["best_hyperparameters"]
        preds = predictor.predict_series(series, rec["i_test"])
        assert hex64(preds) == rec["predict_series"]
        nxt = np.array([predictor.predict_next(series[: rec["i_test"]])])
        assert hex64(nxt) == rec["predict_next"]


# ----------------------------------------------------------------------
# side two: multivariate self-consistency (hypothesis)
# ----------------------------------------------------------------------
mv_series = arrays(
    np.float64,
    st.tuples(st.integers(12, 40), st.integers(2, 4)),
    elements=st.floats(0.0, 1e5, allow_nan=False, width=32),
)


class TestMultivariateProperties:
    @given(series=mv_series)
    @hyp_settings(max_examples=40, deadline=None)
    def test_per_channel_scaler_round_trip(self, series):
        spans = series.max(axis=0) - series.min(axis=0)
        scaler = MinMaxScaler().fit(series)
        assert scaler.n_channels_ == series.shape[1]
        back = scaler.inverse_transform(scaler.transform(series))
        for d in range(series.shape[1]):
            if spans[d] > 1e-9:
                np.testing.assert_allclose(
                    back[:, d], series[:, d], rtol=1e-9, atol=1e-6
                )

    @given(series=mv_series)
    @hyp_settings(max_examples=40, deadline=None)
    def test_channel_sub_scaler_matches_column(self, series):
        """scaler.channel(d) is exactly the scalar fit of column d."""
        scaler = MinMaxScaler().fit(series)
        for d in range(series.shape[1]):
            sub = scaler.channel(d)
            col = MinMaxScaler().fit(series[:, d])
            assert sub.data_min_ == col.data_min_
            assert sub.data_max_ == col.data_max_
            np.testing.assert_array_equal(
                sub.transform(series[:, d]), scaler.transform(series)[:, d]
            )

    @given(
        series=mv_series,
        n=st.integers(1, 6),
        target=st.integers(0, 3),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_mv_windowing_equals_stacked_univariate(self, series, n, target):
        if series.shape[0] <= n + 1:
            return
        target %= series.shape[1]
        X, y = make_windows(series, n, target=target)
        assert X.shape == (series.shape[0] - n, n, series.shape[1])
        for d in range(series.shape[1]):
            X1, y1 = make_windows(series[:, d], n)
            np.testing.assert_array_equal(X[:, :, d], X1)
            if d == target:
                np.testing.assert_array_equal(y, y1)

    @given(series=mv_series, n=st.integers(1, 6))
    @hyp_settings(max_examples=40, deadline=None)
    def test_mv_windows_for_range_equals_stacked(self, series, n):
        rows = series.shape[0]
        if rows <= n + 2:
            return
        start, end = n, rows - 1
        X, y = windows_for_range(series, n, start, end, target=1)
        for d in range(series.shape[1]):
            X1, y1 = windows_for_range(series[:, d], n, start, end)
            np.testing.assert_array_equal(X[:, :, d], X1)
        np.testing.assert_array_equal(
            y, windows_for_range(series[:, 1], n, start, end)[1]
        )


class TestUnivariateShapeAgnostic:
    def test_flat_and_column_series_fit_and_predict_identically(self):
        """A 1-D series and its ``(N, 1)`` reshape are one channel: the
        same trials, weights and forecasts, whichever shape is served."""
        flat = fixture_series()
        column = flat.reshape(-1, 1)
        fits = [
            LoadDynamics(
                space=search_space_for("default", "tiny"),
                settings=FrameworkSettings.tiny(max_iters=2, epochs=3),
            ).fit(s)
            for s in (flat, column)
        ]
        (p_flat, r_flat), (p_col, r_col) = fits
        assert hex64(r_flat.trial_values()) == hex64(r_col.trial_values())
        assert p_flat.n_channels == p_col.n_channels == 1
        weights = zip(p_flat.model.params, p_col.model.params, strict=True)
        for w_flat, w_col in weights:
            assert hex64(w_flat) == hex64(w_col)
        i_test = 192
        for start in (1, i_test):  # 1: early targets fall back to persistence
            want = hex64(p_flat.predict_series(flat, start))
            for p in (p_flat, p_col):
                for s in (flat, column):
                    assert hex64(p.predict_series(s, start)) == want
        want = hex64(np.array([p_flat.predict_next(flat[:i_test])]))
        for p in (p_flat, p_col):
            for s in (flat, column):
                assert hex64(np.array([p.predict_next(s[:i_test])])) == want


# ----------------------------------------------------------------------
# multivariate end to end
# ----------------------------------------------------------------------
def _mv_series(rows: int = 200, channels: int = 3, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(rows)
    base = 100.0 + 40.0 * np.sin(2 * np.pi * t / 24.0)
    cols = [base + rng.normal(0, 2.0, rows)]
    for d in range(1, channels):
        cols.append(0.5 * cols[0] + 10.0 * d + rng.normal(0, 1.0, rows))
    return np.column_stack(cols)


class TestMultivariateEndToEnd:
    @pytest.mark.parametrize("family", ["lstm", "gbr", "naive"])
    def test_fit_predict_persist_roundtrip(self, family, tmp_path):
        series = _mv_series()
        ld = LoadDynamics(
            space=search_space_for("default", "tiny", family=family),
            settings=FrameworkSettings.tiny(max_iters=2, epochs=3),
            family=family,
        )
        predictor, report = ld.fit(series, target_channel=1)
        assert predictor.n_channels == 3
        assert predictor.target_channel == 1
        assert np.isfinite(ld.evaluate(predictor, series))
        value = predictor.predict_next(series)
        assert np.isfinite(value) and value >= 0.0

        predictor.save(tmp_path / "mv")
        loaded = LoadDynamicsPredictor.load(tmp_path / "mv")
        assert loaded.n_channels == 3 and loaded.target_channel == 1
        np.testing.assert_array_equal(
            loaded.predict_series(series, 150), predictor.predict_series(series, 150)
        )

    def test_predict_next_rejects_wrong_width(self):
        series = _mv_series()
        ld = LoadDynamics(
            space=search_space_for("default", "tiny", family="gbr"),
            settings=FrameworkSettings.tiny(max_iters=1),
            family="gbr",
        )
        predictor, _ = ld.fit(series)
        with pytest.raises(ValueError, match="channel"):
            predictor.predict_next(series[:, :2])
        with pytest.raises(ValueError, match="channel"):
            predictor.predict_series(series[:, :2], 150)

    def test_guarded_serving_multivariate(self):
        from repro.serving import GuardedPredictor, serve_and_simulate

        series = _mv_series(rows=160)
        ld = LoadDynamics(
            space=search_space_for("default", "tiny", family="gbr"),
            settings=FrameworkSettings.tiny(max_iters=1),
            family="gbr",
        )
        predictor, _ = ld.fit(series[:140], target_channel=1)
        guarded = GuardedPredictor(predictor)
        assert guarded.target_channel == 1
        report = serve_and_simulate(guarded, series, 140, refit_every=10**9)
        assert report.result.n_intervals == 20
        assert np.all(np.isfinite(report.schedule))
        assert report.served_by.get("primary", 0) > 0

    @pytest.mark.parametrize("entry", ["walk_forward", "stream_for_trace"])
    def test_out_of_range_target_channel_is_named(self, entry):
        """Every 2-D entry refuses a target channel the series lacks."""
        from repro.baselines.base import Predictor, walk_forward
        from repro.serving import StreamingServer

        class FifthChannel(Predictor):
            name = "fifth"
            target_channel = 4

            def predict_next(self, history):
                return 1.0

        series = _mv_series(rows=40)
        with pytest.raises(ValueError, match="target_channel 4 out of range"):
            if entry == "walk_forward":
                walk_forward(FifthChannel(), series, 30)
            else:
                StreamingServer.for_trace(FifthChannel(), series, 30)

    def test_guard_bound_uses_target_channel(self):
        """The rolling-max clamp binds against the target channel, not D=0."""
        from repro.baselines.base import Predictor
        from repro.serving.guard import GuardedPredictor

        class Exploder(Predictor):
            name = "exploder"
            target_channel = 1

            def predict_next(self, history):
                return 1e12

        g = GuardedPredictor(Exploder(), guard_factor=2.0)
        h = np.column_stack([np.full(50, 1e6), np.full(50, 10.0)])
        assert g.predict_next(h) == pytest.approx(20.0)  # 2 x max(channel 1)
