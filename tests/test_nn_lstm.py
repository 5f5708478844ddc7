"""Tests for the LSTM layer: shapes, recurrence semantics, and BPTT.

The gradient checks are the load-bearing tests of the whole nn
substrate: if backward matches numerical differentiation to ~1e-6, the
training loop is trustworthy.  The oracle tests pin the fused training
kernel to the per-gate formulation it replaced, kept below verbatim as
``reference_forward``/``reference_backward``, on raw bytes.
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import lstm as lstm_module
from repro.nn.activations import dsigmoid_from_y, dtanh_from_y, sigmoid
from repro.nn.losses import mse_loss
from repro.nn.lstm import LSTMLayer
from repro.nn.network import LSTMRegressor


class _ReferenceCache:
    __slots__ = ("x", "gates", "c", "tanh_c", "h", "h0", "c0")

    def __init__(self, x, gates, c, tanh_c, h, h0, c0):
        self.x = x          # (B, T, D) layer input
        self.gates = gates  # (T, B, 4H) post-activation gate values [i,f,o,g]
        self.c = c          # (T, B, H) cell states C_t
        self.tanh_c = tanh_c  # (T, B, H) tanh(C_t)
        self.h = h          # (T, B, H) hidden states h_t
        self.h0 = h0        # (B, H) initial hidden state
        self.c0 = c0        # (B, H) initial cell state


def reference_forward(self, x, h0=None, c0=None):
    """The per-gate training forward the fused kernel replaced."""
    B, T, D = x.shape
    H = self.hidden_size
    h_prev = np.zeros((B, H)) if h0 is None else np.array(h0, dtype=np.float64)
    c_prev = np.zeros((B, H)) if c0 is None else np.array(c0, dtype=np.float64)

    # Hoist the input projection out of the loop: one big GEMM over
    # all timesteps instead of T small ones.
    xw = x.reshape(B * T, D) @ self.W  # (B*T, 4H)
    xw = xw.reshape(B, T, 4 * H) + self.b

    gates = np.empty((T, B, 4 * H))
    cs = np.empty((T, B, H))
    tanh_cs = np.empty((T, B, H))
    hs = np.empty((T, B, H))
    h0_saved, c0_saved = h_prev.copy(), c_prev.copy()

    for t in range(T):
        z = xw[:, t, :] + h_prev @ self.U  # (B, 4H)
        i = sigmoid(z[:, :H])
        f = sigmoid(z[:, H : 2 * H])
        o = sigmoid(z[:, 2 * H : 3 * H])
        g = np.tanh(z[:, 3 * H :])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t, :, :H] = i
        gates[t, :, H : 2 * H] = f
        gates[t, :, 2 * H : 3 * H] = o
        gates[t, :, 3 * H :] = g
        cs[t] = c
        tanh_cs[t] = tc
        hs[t] = h
        h_prev, c_prev = h, c

    cache = _ReferenceCache(x, gates, cs, tanh_cs, hs, h0_saved, c0_saved)
    return np.ascontiguousarray(hs.transpose(1, 0, 2)), cache


def reference_backward(self, d_h_seq, cache):
    """The per-gate BPTT the fused kernel replaced."""
    x, gates, cs, tanh_cs = cache.x, cache.gates, cache.c, cache.tanh_c
    B, T, D = x.shape
    H = self.hidden_size

    dW = np.zeros_like(self.W)
    dU = np.zeros_like(self.U)
    db = np.zeros_like(self.b)
    dz_all = np.empty((T, B, 4 * H))  # pre-activation grads, for batched GEMMs

    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        i = gates[t, :, :H]
        f = gates[t, :, H : 2 * H]
        o = gates[t, :, 2 * H : 3 * H]
        g = gates[t, :, 3 * H :]
        c_prev = cs[t - 1] if t > 0 else cache.c0
        tc = tanh_cs[t]

        dh = d_h_seq[:, t, :] + dh_next
        do = dh * tc
        dc = dh * o * dtanh_from_y(tc) + dc_next
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dc_next = dc * f

        dz = dz_all[t]
        dz[:, :H] = di * dsigmoid_from_y(i)
        dz[:, H : 2 * H] = df * dsigmoid_from_y(f)
        dz[:, 2 * H : 3 * H] = do * dsigmoid_from_y(o)
        dz[:, 3 * H :] = dg * dtanh_from_y(g)

        h_prev = cache.h[t - 1] if t > 0 else cache.h0
        dU += h_prev.T @ dz
        dh_next = dz @ self.U.T

    # Batched input-side GEMMs (time loop only carries the recurrence).
    dz_flat = dz_all.transpose(1, 0, 2).reshape(B * T, 4 * H)
    dW += x.reshape(B * T, D).T @ dz_flat
    db += dz_flat.sum(axis=0)
    dx = (dz_flat @ self.W.T).reshape(B, T, D)
    return dx, [dW, dU, db]


def hex64(a: np.ndarray) -> str:
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes().hex()


@pytest.fixture
def layer(rng):
    return LSTMLayer(input_size=2, hidden_size=4, rng=rng)


class TestForward:
    def test_output_shape(self, layer, rng):
        x = rng.standard_normal((3, 7, 2))
        h, cache = layer.forward(x)
        assert h.shape == (3, 7, 4)
        assert cache.h.shape == (7, 3, 4)

    def test_hidden_in_tanh_range(self, layer, rng):
        x = 10.0 * rng.standard_normal((4, 9, 2))
        h, _ = layer.forward(x)
        # h = o * tanh(C) with o in (0,1): |h| < 1 always
        assert np.all(np.abs(h) < 1.0)

    def test_rejects_bad_rank(self, layer, rng):
        with pytest.raises(ValueError, match="batch, time, features"):
            layer.forward(rng.standard_normal((3, 7)))

    def test_rejects_wrong_feature_dim(self, layer, rng):
        with pytest.raises(ValueError, match="input_size"):
            layer.forward(rng.standard_normal((3, 7, 5)))

    def test_rejects_empty_sequence(self, layer, rng):
        with pytest.raises(ValueError, match="positive"):
            layer.forward(rng.standard_normal((3, 0, 2)))

    def test_deterministic(self, rng):
        x = rng.standard_normal((2, 5, 2))
        a = LSTMLayer(2, 3, np.random.default_rng(0)).forward(x)[0]
        b = LSTMLayer(2, 3, np.random.default_rng(0)).forward(x)[0]
        np.testing.assert_array_equal(a, b)

    def test_initial_state_respected(self, layer, rng):
        """Non-zero initial states must change the first step's output."""
        x = rng.standard_normal((2, 3, 2))
        h_zero, _ = layer.forward(x)
        h0 = np.full((2, 4), 0.5)
        c0 = np.full((2, 4), -0.5)
        h_init, _ = layer.forward(x, h0=h0, c0=c0)
        assert not np.allclose(h_zero[:, 0, :], h_init[:, 0, :])

    def test_recurrence_prefix_property(self, layer, rng):
        """Hidden states for a prefix equal the prefix of the full run
        (causality: future inputs cannot affect past outputs)."""
        x = rng.standard_normal((2, 8, 2))
        full, _ = layer.forward(x)
        prefix, _ = layer.forward(x[:, :5, :])
        np.testing.assert_allclose(full[:, :5, :], prefix, atol=1e-12)

    def test_batch_independence(self, layer, rng):
        """Each batch row is processed independently."""
        x = rng.standard_normal((3, 6, 2))
        together, _ = layer.forward(x)
        solo, _ = layer.forward(x[1:2])
        np.testing.assert_allclose(together[1:2], solo, atol=1e-12)


    @pytest.mark.parametrize("bad", [(4,), (1, 4), (3, 4)])
    @pytest.mark.parametrize("name", ["h0", "c0"])
    def test_initial_state_shape_validated(self, layer, rng, name, bad):
        """A state that is not (B, H) is rejected by both forward paths,
        naming both shapes, instead of broadcasting into the recurrence."""
        x = rng.standard_normal((2, 5, 2))
        for forward in (layer.forward, layer.forward_inference):
            with pytest.raises(ValueError, match=re.escape(f"{name} shape {bad}")
                               + r".*\(2, 4\)"):
                forward(x, **{name: np.zeros(bad)})


def _assert_inference_bytes(layer, x, state, h_ref):
    """``forward_inference`` in both output modes matches ``h_ref``."""
    assert hex64(layer.forward_inference(x, **state)) == hex64(h_ref)
    last = layer.forward_inference(x, return_sequences=False, **state)
    assert hex64(last) == hex64(h_ref[:, -1])


class TestReferenceOracle:
    """Hidden sequence and every gradient are byte-equal to the
    per-gate formulation, over random shapes and initial states."""

    @settings(max_examples=60, deadline=None)
    @given(
        B=st.integers(1, 5), T=st.integers(1, 6), D=st.integers(1, 4),
        H=st.integers(1, 6), with_state=st.booleans(),
        scale=st.sampled_from([0.5, 3.0, 40.0]), seed=st.integers(0, 2**16),
        du_block=st.sampled_from([None, 1, 2, 4]),
    )
    # The shapes perfbench trains and serves (history 24, 8 cells, batch
    # 32; layer 2 reads D=8), a ragged last batch, and B = H = 1, where
    # the gate-major (3, B, H) views degenerate.  BLAS may pick other
    # kernels at these sizes than at the drawn ones.
    @example(B=32, T=24, D=1, H=8, with_state=False, scale=3.0, seed=3,
             du_block=None)
    @example(B=32, T=24, D=8, H=8, with_state=False, scale=0.5, seed=4,
             du_block=None)
    @example(B=17, T=24, D=1, H=8, with_state=True, scale=3.0, seed=5,
             du_block=2)
    @example(B=1, T=3, D=1, H=1, with_state=True, scale=40.0, seed=6,
             du_block=1)
    def test_forward_backward_bytes(
        self, B, T, D, H, with_state, scale, seed, du_block
    ):
        rng = np.random.default_rng(seed)
        layer = LSTMLayer(D, H, rng)
        layer.b += rng.standard_normal(layer.b.shape)
        x = scale * rng.standard_normal((B, T, D))
        state = {}
        if with_state:
            state = {"h0": rng.uniform(-1, 1, (B, H)),
                     "c0": rng.standard_normal((B, H))}
        d_h_seq = rng.standard_normal((B, T, H))

        h, cache = layer.forward(x, **state)
        h_ref, cache_ref = reference_forward(layer, x, **state)
        assert hex64(h) == hex64(h_ref)
        _assert_inference_bytes(layer, x, state, h_ref)
        # ``du_block`` steps per stacked dU GEMM (None: the default
        # budget, one block at these sizes) crosses block boundaries.
        budget = (nullcontext() if du_block is None else mock.patch.object(
            lstm_module, "_DU_BLOCK_ELEMS", du_block * 4 * H * H))
        with budget:
            dx, grads = layer.backward(d_h_seq, cache)
        dx_ref, grads_ref = reference_backward(layer, d_h_seq, cache_ref)
        assert hex64(dx) == hex64(dx_ref)
        for name, got, want in zip("W U b".split(), grads, grads_ref, strict=True):
            assert hex64(got) == hex64(want), name

        # A longer window, then a larger batch, each rebuild the layer's
        # inference scratch; the first shape then rebuilds it again.
        for shape in ((B, T + 1, D), (B + 1, T, D)):
            x2 = scale * rng.standard_normal(shape)
            _assert_inference_bytes(
                layer, x2, {}, reference_forward(layer, x2)[0])
        _assert_inference_bytes(layer, x, state, h_ref)


class TestCacheIndependence:
    def test_inference_call_leaves_cache_intact(self, rng):
        """``forward_inference`` between ``forward`` and ``backward`` must
        not touch the returned hidden sequence or cache: neither may
        alias the layer's inference scratch."""
        layer = LSTMLayer(3, 5, rng)
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


class TestBackward:
    def test_gradient_check_single_layer(self, rng):
        layer = LSTMLayer(1, 3, rng)
        x = rng.standard_normal((4, 6, 1))
        target = rng.standard_normal((4, 6, 3))

        def loss_of_params():
            h, _ = layer.forward(x)
            return 0.5 * float(np.sum((h - target) ** 2))

        h, cache = layer.forward(x)
        dx, grads = layer.backward(h - target, cache)

        eps = 1e-6
        for p, g in zip(layer.params, grads, strict=True):
            flat = p.ravel()
            gflat = g.ravel()
            idx = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss_of_params()
                flat[i] = orig - eps
                lm = loss_of_params()
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                assert num == pytest.approx(gflat[i], rel=1e-4, abs=1e-7)

    def test_gradient_check_input(self, rng):
        layer = LSTMLayer(2, 3, rng)
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
            num = (lp - lm) / (2 * eps)
            assert num == pytest.approx(dx.ravel()[i], rel=1e-4, abs=1e-7)

    def test_backward_shape_validation(self, layer, rng):
        x = rng.standard_normal((2, 5, 2))
        _, cache = layer.forward(x)
        with pytest.raises(ValueError, match="d_h_seq"):
            layer.backward(np.zeros((2, 5, 7)), cache)


class TestRegressorGradients:
    def test_full_stack_gradient_check(self, rng):
        """End-to-end: 2-layer LSTM + dense head through the MSE loss."""
        m = LSTMRegressor(hidden_size=3, num_layers=2, seed=5)
        x = rng.standard_normal((4, 5, 1))
        y = rng.standard_normal(4)
        pred, caches = m._forward(x)
        _, d_pred = mse_loss(pred, y)
        grads = m._backward(d_pred, caches, x.shape)
        params = m.params
        eps = 1e-6
        for p, g in zip(params, grads, strict=True):
            flat, gflat = p.ravel(), g.ravel()
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = mse_loss(m._forward(x)[0], y)
                flat[i] = orig - eps
                lm, _ = mse_loss(m._forward(x)[0], y)
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                assert num == pytest.approx(gflat[i], rel=1e-3, abs=1e-8)

    def test_param_count(self):
        m = LSTMRegressor(hidden_size=4, num_layers=1, input_size=1)
        # LSTM: W(1x16) + U(4x16) + b(16) = 96; head: 4+1 = 5
        assert m.n_params() == 96 + 5
