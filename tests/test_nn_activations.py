"""Tests for repro.nn.activations and repro.nn.initializers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.activations import (
    clip_ufunc,
    drelu_from_x,
    dsigmoid_from_y,
    dtanh_from_y,
    relu,
    sigmoid,
    tanh,
)
from repro.nn.initializers import glorot_uniform, lstm_bias, orthogonal


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_no_overflow_extreme_inputs(self):
        x = np.array([-1e9, 1e9])
        y = sigmoid(x)
        assert y[0] == pytest.approx(0.0, abs=1e-15)
        assert y[1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.isfinite(y))

    @given(arrays(np.float64, 20, elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotonicity(self, x):
        y = sigmoid(x)
        assert np.all((y >= 0.0) & (y <= 1.0))
        order = np.argsort(x)
        assert np.all(np.diff(y[order]) >= -1e-15)

    def test_derivative_matches_numeric(self):
        x = np.linspace(-4, 4, 41)
        eps = 1e-6
        num = (sigmoid(x + eps) - sigmoid(x - eps)) / (2 * eps)
        ana = dsigmoid_from_y(sigmoid(x))
        np.testing.assert_allclose(ana, num, atol=1e-8)


_EDGES = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 60.0, -60.0,
          np.nextafter(60.0, np.inf), 5e-324]


class TestClipBinding:
    """``clip_ufunc`` gives the bytes ``np.clip`` gives: same values,
    same NaN and signed-zero bits, same result type, strided or
    written in place."""

    @staticmethod
    def _same(got, want):
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        x=arrays(
            np.float64, st.tuples(st.integers(1, 7), st.integers(1, 9)),
            elements=st.sampled_from(_EDGES) | st.floats(allow_nan=True),
        ),
        bounds=st.sampled_from([(-60.0, 60.0), (0.0, 1.0), (-0.0, 0.0)]),
    )
    def test_same_bytes_as_np_clip(self, x, bounds):
        lo, hi = bounds
        self._same(clip_ufunc(x, lo, hi), np.clip(x, lo, hi))
        # Strided views: every other column, and a transpose.
        for view in (x[:, ::2], x.T):
            self._same(clip_ufunc(view, lo, hi), np.clip(view, lo, hi))
            # A contiguous destination for a strided operand, as the
            # fused LSTM sigmoid writes it.
            a, b = np.empty(view.shape), np.empty(view.shape)
            clip_ufunc(view, lo, hi, a)
            np.clip(view, lo, hi, out=b)
            self._same(a, b)
        # ``out`` aliasing the input, contiguous and strided.
        for sl in (np.s_[:, :], np.s_[:, ::2]):
            a, b = x.copy(), x.copy()
            clip_ufunc(a[sl], lo, hi, a[sl])
            np.clip(b[sl], lo, hi, out=b[sl])
            self._same(a, b)

    def test_scalars_and_zero_d(self):
        for v in _EDGES:
            for x in (np.float64(v), np.array(v), v):
                self._same(clip_ufunc(x, -60.0, 60.0), np.clip(x, -60.0, 60.0))

    def test_sigmoid_matches_np_clip_spelling(self):
        x = np.array(_EDGES + [-800.0, 800.0, 1.5])
        with np.errstate(invalid="ignore"):
            want = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        self._same(sigmoid(x), want)


class TestTanh:
    def test_derivative_matches_numeric(self):
        x = np.linspace(-3, 3, 31)
        eps = 1e-6
        num = (tanh(x + eps) - tanh(x - eps)) / (2 * eps)
        np.testing.assert_allclose(dtanh_from_y(tanh(x)), num, atol=1e-8)


class TestRelu:
    def test_values(self):
        np.testing.assert_array_equal(
            relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0]
        )

    def test_derivative(self):
        np.testing.assert_array_equal(
            drelu_from_x(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 1.0]
        )


class TestInitializers:
    def test_glorot_bounds(self, rng):
        w = glorot_uniform(rng, 10, 20, (10, 20))
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(w) <= limit)
        assert w.shape == (10, 20)

    def test_glorot_invalid_fans(self, rng):
        with pytest.raises(ValueError):
            glorot_uniform(rng, 0, 5, (5,))

    def test_orthogonal_square_is_orthogonal(self, rng):
        q = orthogonal(rng, 16, 16)
        np.testing.assert_allclose(q @ q.T, np.eye(16), atol=1e-10)

    def test_orthogonal_tall_has_orthonormal_columns(self, rng):
        q = orthogonal(rng, 20, 8)
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-10)

    def test_orthogonal_invalid(self, rng):
        with pytest.raises(ValueError):
            orthogonal(rng, 0, 4)

    def test_lstm_bias_forget_gate_slice(self):
        b = lstm_bias(5, forget_bias=1.0)
        assert b.shape == (20,)
        np.testing.assert_array_equal(b[5:10], np.ones(5))
        assert b[:5].sum() == 0.0 and b[10:].sum() == 0.0

    def test_lstm_bias_invalid(self):
        with pytest.raises(ValueError):
            lstm_bias(0)
