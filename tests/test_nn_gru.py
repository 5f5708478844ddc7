"""Tests for the GRU layer and the cell-type option of LSTMRegressor."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.nn import LSTMRegressor, load_regressor, save_regressor
from repro.nn.gru import GRULayer
from repro.nn.losses import mse_loss


@pytest.fixture
def layer(rng):
    return GRULayer(input_size=2, hidden_size=4, rng=rng)


class TestGRUForward:
    def test_shapes(self, layer, rng):
        x = rng.standard_normal((3, 6, 2))
        h, cache = layer.forward(x)
        assert h.shape == (3, 6, 4)
        assert cache.h.shape == (6, 3, 4)

    def test_hidden_bounded(self, layer, rng):
        """h_t is a convex combination of h_{t-1} (starts at 0) and a tanh
        candidate, so |h| < 1 always."""
        x = 20.0 * rng.standard_normal((4, 10, 2))
        h, _ = layer.forward(x)
        # tanh saturates to exactly 1.0 in float64 for huge inputs.
        assert np.all(np.abs(h) <= 1.0)

    def test_causality(self, layer, rng):
        x = rng.standard_normal((2, 8, 2))
        full, _ = layer.forward(x)
        prefix, _ = layer.forward(x[:, :4, :])
        np.testing.assert_allclose(full[:, :4, :], prefix, atol=1e-12)

    def test_input_validation(self, layer, rng):
        with pytest.raises(ValueError):
            layer.forward(rng.standard_normal((3, 6)))
        with pytest.raises(ValueError):
            layer.forward(rng.standard_normal((3, 6, 5)))
        with pytest.raises(ValueError):
            layer.forward(rng.standard_normal((3, 0, 2)))

    @pytest.mark.parametrize("bad", [(4,), (1, 4), (3, 4)])
    def test_initial_state_shape_validated(self, layer, rng, bad):
        """An h0 that is not (B, H) is rejected by both forward paths,
        naming both shapes, instead of failing inside the recurrence."""
        x = rng.standard_normal((2, 5, 2))
        for forward in (layer.forward, layer.forward_inference):
            with pytest.raises(ValueError, match=re.escape(f"h0 shape {bad}")
                               + r".*\(2, 4\)"):
                forward(x, h0=np.zeros(bad))

    def test_fewer_params_than_lstm(self, rng):
        from repro.nn.lstm import LSTMLayer

        gru = GRULayer(1, 8, np.random.default_rng(0))
        lstm = LSTMLayer(1, 8, np.random.default_rng(0))
        assert gru.n_params() == lstm.n_params() * 3 // 4  # 3 gates vs 4


class TestGRUBackward:
    def test_gradient_check(self, rng):
        layer = GRULayer(1, 3, rng)
        x = rng.standard_normal((3, 5, 1))
        target = rng.standard_normal((3, 5, 3))

        def loss():
            h, _ = layer.forward(x)
            return 0.5 * float(np.sum((h - target) ** 2))

        h, cache = layer.forward(x)
        dx, grads = layer.backward(h - target, cache)
        eps = 1e-6
        for p, g in zip(layer.params, grads, strict=True):
            flat, gflat = p.ravel(), g.ravel()
            for i in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                assert num == pytest.approx(gflat[i], rel=1e-4, abs=1e-7)

    def test_input_gradient_check(self, rng):
        layer = GRULayer(2, 3, rng)
        x = rng.standard_normal((2, 4, 2))
        target = rng.standard_normal((2, 4, 3))
        h, cache = layer.forward(x)
        dx, _ = layer.backward(h - target, cache)
        eps = 1e-6
        flat = x.ravel()
        for i in rng.choice(flat.size, size=6, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            lp = 0.5 * float(np.sum((layer.forward(x)[0] - target) ** 2))
            flat[i] = orig - eps
            lm = 0.5 * float(np.sum((layer.forward(x)[0] - target) ** 2))
            flat[i] = orig
            assert (lp - lm) / (2 * eps) == pytest.approx(
                dx.ravel()[i], rel=1e-4, abs=1e-7
            )

    def test_shape_validation(self, layer, rng):
        x = rng.standard_normal((2, 5, 2))
        _, cache = layer.forward(x)
        with pytest.raises(ValueError):
            layer.backward(np.zeros((2, 5, 9)), cache)


class TestGRURegressor:
    def test_full_stack_gradient_check(self, rng):
        m = LSTMRegressor(hidden_size=3, num_layers=2, seed=5, cell="gru")
        x = rng.standard_normal((4, 5, 1))
        y = rng.standard_normal(4)
        pred, caches = m._forward(x)
        _, d_pred = mse_loss(pred, y)
        grads = m._backward(d_pred, caches, x.shape)
        eps = 1e-6
        for p, g in zip(m.params, grads, strict=True):
            flat, gflat = p.ravel(), g.ravel()
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = mse_loss(m._forward(x)[0], y)
                flat[i] = orig - eps
                lm, _ = mse_loss(m._forward(x)[0], y)
                flat[i] = orig
                assert (lp - lm) / (2 * eps) == pytest.approx(
                    gflat[i], rel=1e-3, abs=1e-8
                )

    def test_gru_learns_sine(self, sine_series):
        s = (sine_series - 100.0) / 50.0
        X = np.stack([s[i : i + 12] for i in range(len(s) - 12)])
        y = s[12:]
        m = LSTMRegressor(hidden_size=10, seed=0, cell="gru")
        m.fit(X[:180], y[:180], epochs=25, batch_size=32, lr=0.01)
        rmse = float(np.sqrt(np.mean((m.predict(X[180:]) - y[180:]) ** 2)))
        assert rmse < 0.15

    def test_serialization_roundtrip(self, tmp_path, rng):
        m = LSTMRegressor(hidden_size=4, num_layers=2, seed=2, cell="gru")
        x = rng.standard_normal((5, 6, 1))
        path = save_regressor(m, tmp_path / "gru")
        m2 = load_regressor(path)
        assert m2.cell == "gru"
        np.testing.assert_array_equal(m.predict(x), m2.predict(x))

    def test_invalid_cell(self):
        with pytest.raises(ValueError, match="cell"):
            LSTMRegressor(hidden_size=3, cell="rnn")
