"""Tests for the GRU layer and the cell-type option of LSTMRegressor.

The oracle tests pin both forward entries to the out-of-place training
forward they replaced, kept below verbatim as ``reference_forward``, on
raw bytes.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import LSTMRegressor, load_regressor, save_regressor
from repro.nn.activations import sigmoid
from repro.nn.gru import GRUCache, GRULayer
from repro.nn.losses import mse_loss


def reference_forward(self, x, h0=None):
    """The out-of-place training forward the shared step loop replaced."""
    B, T, D = x.shape
    H = self.hidden_size
    h_prev = np.zeros((B, H)) if h0 is None else np.array(h0, dtype=np.float64)

    xw = x.reshape(B * T, D) @ self.W
    xw = xw.reshape(B, T, 3 * H) + self.b

    Ug = self.U[:, 2 * H :]

    zs = np.empty((T, B, H))
    rs = np.empty((T, B, H))
    gs = np.empty((T, B, H))
    hs = np.empty((T, B, H))
    rhs = np.empty((T, B, H))
    h0_saved = h_prev.copy()

    for t in range(T):
        hu = h_prev @ self.U[:, : 2 * H]  # z and r recurrent parts together
        z = sigmoid(xw[:, t, :H] + hu[:, :H])
        r = sigmoid(xw[:, t, H : 2 * H] + hu[:, H:])
        rh = r * h_prev
        g = np.tanh(xw[:, t, 2 * H :] + rh @ Ug)
        h = (1.0 - z) * h_prev + z * g
        zs[t], rs[t], gs[t], hs[t], rhs[t] = z, r, g, h, rh
        h_prev = h

    cache = GRUCache(x, zs, rs, gs, hs, h0_saved, rhs)
    return np.ascontiguousarray(hs.transpose(1, 0, 2)), cache


def hex64(a: np.ndarray) -> str:
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes().hex()


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


class TestReferenceOracle:
    """Both forward entries, every cache stack and the gradients are
    byte-equal to the out-of-place formulation, over random shapes and
    initial states."""

    @settings(max_examples=60, deadline=None)
    @given(
        B=st.integers(1, 5), T=st.integers(1, 6), D=st.integers(1, 4),
        H=st.integers(1, 6), with_state=st.booleans(),
        scale=st.sampled_from([0.5, 3.0, 40.0]), seed=st.integers(0, 2**16),
    )
    # The shapes perfbench's LSTM trains and serves (history 24, 8 cells,
    # batch 32; layer 2 reads D=8), a ragged last batch, B = H = 1, and
    # one row of a multichannel input with a given state.
    @example(B=32, T=24, D=1, H=8, with_state=False, scale=3.0, seed=3)
    @example(B=32, T=24, D=8, H=8, with_state=False, scale=0.5, seed=4)
    @example(B=17, T=24, D=1, H=8, with_state=True, scale=3.0, seed=5)
    @example(B=1, T=3, D=1, H=1, with_state=True, scale=40.0, seed=6)
    @example(B=1, T=7, D=3, H=5, with_state=True, scale=3.0, seed=7)
    def test_forward_backward_bytes(self, B, T, D, H, with_state, scale, seed):
        rng = np.random.default_rng(seed)
        layer = GRULayer(D, H, rng)
        layer.b += rng.standard_normal(layer.b.shape)
        x = scale * rng.standard_normal((B, T, D))
        state = {"h0": rng.uniform(-1, 1, (B, H))} if with_state else {}
        d_h_seq = rng.standard_normal((B, T, H))

        h, cache = layer.forward(x, **state)
        h_ref, cache_ref = reference_forward(layer, x, **state)
        assert hex64(h) == hex64(h_ref)
        for name in ("z", "r", "g", "h", "rh", "h0"):
            got, want = getattr(cache, name), getattr(cache_ref, name)
            assert got.shape == want.shape, name
            assert hex64(got) == hex64(want), name
        assert hex64(layer.forward_inference(x, **state)) == hex64(h_ref)
        last = layer.forward_inference(x, return_sequences=False, **state)
        assert hex64(last) == hex64(h_ref[:, -1])

        dx, grads = layer.backward(d_h_seq, cache)
        dx_ref, grads_ref = layer.backward(d_h_seq, cache_ref)
        assert hex64(dx) == hex64(dx_ref)
        for name, got, want in zip("W U b".split(), grads, grads_ref, strict=True):
            assert hex64(got) == hex64(want), name


class TestCacheIndependence:
    def test_inference_call_leaves_cache_intact(self, rng):
        """``forward_inference`` between ``forward`` and ``backward`` must
        not touch the returned hidden sequence or cache: neither may
        alias the layer's inference scratch."""
        layer = GRULayer(3, 5, rng)
        x1, x2 = rng.standard_normal((2, 4, 6, 3))
        d_h_seq = rng.standard_normal((4, 6, 5))
        h_alone, cache_alone = layer.forward(x1)
        want = layer.backward(d_h_seq, cache_alone)

        h1, cache1 = layer.forward(x1)
        for return_sequences in (True, False):
            layer.forward_inference(x2, return_sequences=return_sequences)
        assert hex64(h1) == hex64(h_alone)
        dx, grads = layer.backward(d_h_seq, cache1)
        assert hex64(dx) == hex64(want[0])
        for got, ref in zip(grads, want[1], strict=True):
            assert hex64(got) == hex64(ref)


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
