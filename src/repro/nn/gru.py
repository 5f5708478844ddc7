"""GRU layer — the LSTM-variant ablation cell.

The paper's related work (Section VI) groups several deep predictors as
"LSTM or LSTM-variants"; the gated recurrent unit (Cho et al. 2014) is
the canonical variant with one fewer gate and no separate cell memory:

    z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)        (update gate)
    r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)        (reset gate)
    g_t = tanh  (W_g x_t + U_g (r_t ⊙ h_{t-1}) + b_g) (candidate)
    h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ g_t

Same vectorization strategy as :class:`repro.nn.lstm.LSTMLayer`: gates
packed ``[z, r, g]`` into single kernels (two GEMMs per step), batch
dimension fully vectorized, full backpropagation through time, and one
step loop (:meth:`GRULayer._recur`) that both ``forward`` (over the BPTT
stacks) and ``forward_inference`` (over reusable scratch) run.  Swapping
this cell into :class:`~repro.nn.network.LSTMRegressor` (``cell="gru"``)
gives the architecture ablation bench its comparison point.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.nn.activations import dsigmoid_from_y, dtanh_from_y
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.nn.lstm import (
    _check_input,
    _check_state,
    _project_inputs,
    _sigmoid_inplace,
)

__all__ = ["GRULayer", "GRUCache"]


class _GRUScratch:
    """Reusable buffers for :meth:`GRULayer.forward_inference` (see
    ``repro.nn.lstm._LSTMScratch``).  ``step`` repeats the one set of
    step buffers the step loop reuses at every step."""

    __slots__ = ("B", "T", "xw", "staging", "tmp", "h", "step", "hs", "out")

    def __init__(self, B: int, T: int, D: int, H: int):
        self.B, self.T = B, T
        self.xw = np.empty((T, B, 3 * H))
        # GEMM staging of the multichannel projection (D > 1 only).
        self.staging = np.empty((B * T, 3 * H)) if D > 1 else None
        self.tmp = np.empty((B, H))
        self.h = np.empty((B, H))
        zr = np.empty((B, 2 * H))
        # h_t overwrites h_{t-1} in place, after the step's last read.
        self.step = tuple(map(repeat, (zr, zr[:, :H], zr[:, H:],
                                       np.empty((B, H)), np.empty((B, H)),
                                       self.h)))
        self.hs = np.empty((T, B, H))  # h_t stack for ``return_sequences``
        self.out = np.empty((B, T, H))


class GRUCache:
    """Forward intermediates for :meth:`GRULayer.backward`."""

    __slots__ = ("x", "z", "r", "g", "h", "h0", "rh")

    def __init__(self, x, z, r, g, h, h0, rh):
        self.x = x    # (B, T, D)
        self.z = z    # (T, B, H) update gate
        self.r = r    # (T, B, H) reset gate
        self.g = g    # (T, B, H) candidate
        self.h = h    # (T, B, H) hidden states
        self.h0 = h0  # (B, H)
        self.rh = rh  # (T, B, H) r_t ⊙ h_{t-1} (saved for U_g grads)


class GRULayer:
    """One GRU layer mapping (B, T, D) inputs to (B, T, H) hidden states."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        H = self.hidden_size
        self.W = glorot_uniform(rng, input_size, H, (input_size, 3 * H))
        self.U = np.concatenate([orthogonal(rng, H, H) for _ in range(3)], axis=1)
        self.b = np.zeros(3 * H)
        self._scratch: _GRUScratch | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_scratch"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._scratch = state.get("_scratch")

    # ------------------------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        return [self.W, self.U, self.b]

    def n_params(self) -> int:
        return sum(p.size for p in self.params)

    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, h0: np.ndarray | None = None
    ) -> tuple[np.ndarray, GRUCache]:
        """Run the recurrence over a (B, T, D) batch; returns the hidden
        sequence (B, T, H) and the BPTT cache, whose (T, B, ·) stacks
        are the step loop's per-step buffers (:meth:`_recur`)."""
        B, T, _ = _check_input(x, self.input_size)
        H = self.hidden_size
        _check_state("h0", h0, B, H)
        h0 = np.zeros((B, H)) if h0 is None else np.array(h0, dtype=np.float64)

        xw = np.empty((T, B, 3 * H))
        _project_inputs(x, self.W, self.b, xw)
        # z and r share one (B, 2H) block per step, as the sigmoid runs
        # over both at once; the cache keeps their (T, B, H) views.
        zr = np.empty((T, B, 2 * H))
        gs, hs, rhs = (np.empty((T, B, H)) for _ in range(3))
        bufs = (zr, zr[:, :, :H], zr[:, :, H:], rhs, gs, hs)
        self._recur(xw, h0, np.empty((B, H)), bufs)
        cache = GRUCache(x, zr[:, :, :H], zr[:, :, H:], gs, hs, h0, rhs)
        return np.ascontiguousarray(hs.transpose(1, 0, 2)), cache

    def forward_inference(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        return_sequences: bool = True,
    ) -> np.ndarray:
        """Forward pass without the BPTT cache (see the LSTM's).

        Bitwise-identical hidden sequence to :meth:`forward`: the same
        step loop runs over reusable per-layer scratch.  With
        ``return_sequences=False`` only the final (B, H) hidden state is
        kept and returned.  The return
        value is a view of layer scratch, valid until the next call;
        not thread-safe.
        """
        B, T, D = _check_input(x, self.input_size)
        H = self.hidden_size
        _check_state("h0", h0, B, H)
        s = self._scratch
        if s is None or s.B != B or s.T != T:
            s = self._scratch = _GRUScratch(B, T, D, H)
        _project_inputs(x, self.W, self.b, s.xw, s.staging)
        s.h[...] = 0.0 if h0 is None else h0
        if not return_sequences:
            self._recur(s.xw, s.h, s.tmp, s.step)
            return s.h
        self._recur(s.xw, s.h, s.tmp, (*s.step[:-1], s.hs))
        s.out[...] = s.hs.transpose(1, 0, 2)
        return s.out

    def _recur(self, xw, h, tmp, bufs) -> None:
        """The one step loop both forward entries run (see the LSTM's).

        ``xw`` is the time-major (T, B, 3H) input projection, ``h`` the
        initial state and ``tmp`` a (B, H) temporary.  ``bufs`` holds
        six iterables that yield each step's ``zr, z, r, rh, g, h``
        output buffers.
        """
        mul, mm, add, sub = np.multiply, np.matmul, np.add, np.subtract
        tanh = np.tanh
        H2 = 2 * self.hidden_size
        Uzr, Ug = self.U[:, :H2], self.U[:, H2:]
        for xzr, xg, zr, z, r, rh, g, h_t in zip(
            xw[:, :, :H2], xw[:, :, H2:], *bufs
        ):
            # [z, r] = sigmoid(h_{t-1} U_zr + x_t W_zr + b_zr), one block.
            mm(h, Uzr, zr)
            add(zr, xzr, zr)
            _sigmoid_inplace(zr)
            # g = tanh((r ⊙ h_{t-1}) U_g + x_t W_g + b_g)
            mul(r, h, rh)
            mm(rh, Ug, g)
            add(g, xg, g)
            tanh(g, g)
            # h_t = (1 - z) ⊙ h_{t-1} + z ⊙ g
            sub(1.0, z, tmp)
            mul(tmp, h, tmp)
            mul(z, g, h_t)
            add(h_t, tmp, h_t)
            h = h_t

    # ------------------------------------------------------------------
    def backward(
        self, d_h_seq: np.ndarray, cache: GRUCache
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        x = cache.x
        B, T, D = x.shape
        H = self.hidden_size
        if d_h_seq.shape != (B, T, H):
            raise ValueError(f"d_h_seq shape {d_h_seq.shape} != expected {(B, T, H)}")

        Uz = self.U[:, :H]
        Ur = self.U[:, H : 2 * H]
        Ug = self.U[:, 2 * H :]
        dW = np.zeros_like(self.W)
        dU = np.zeros_like(self.U)
        db = np.zeros_like(self.b)
        dz_all = np.empty((T, B, 3 * H))  # pre-activation grads [z, r, g]

        dh_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            z, r, g = cache.z[t], cache.r[t], cache.g[t]
            h_prev = cache.h[t - 1] if t > 0 else cache.h0
            dh = d_h_seq[:, t, :] + dh_next

            dz_gate = dh * (g - h_prev)           # d/dz of h
            dg = dh * z
            dh_prev = dh * (1.0 - z)

            da_g = dg * dtanh_from_y(g)           # pre-activation of candidate
            d_rh = da_g @ Ug.T
            dr = d_rh * h_prev
            dh_prev += d_rh * r

            da_z = dz_gate * dsigmoid_from_y(z)
            da_r = dr * dsigmoid_from_y(r)
            dh_prev += da_z @ Uz.T + da_r @ Ur.T

            dz_all[t, :, :H] = da_z
            dz_all[t, :, H : 2 * H] = da_r
            dz_all[t, :, 2 * H :] = da_g

            dU[:, :H] += h_prev.T @ da_z
            dU[:, H : 2 * H] += h_prev.T @ da_r
            dU[:, 2 * H :] += cache.rh[t].T @ da_g

            dh_next = dh_prev

        dz_flat = dz_all.transpose(1, 0, 2).reshape(B * T, 3 * H)
        dW += x.reshape(B * T, D).T @ dz_flat
        db += dz_flat.sum(axis=0)
        dx = (dz_flat @ self.W.T).reshape(B, T, D)
        return dx, [dW, dU, db]
