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
dimension fully vectorized, full backpropagation through time.  Swapping
this cell into :class:`~repro.nn.network.LSTMRegressor` (``cell="gru"``)
gives the architecture ablation bench its comparison point.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import dsigmoid_from_y, dtanh_from_y, sigmoid
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.nn.lstm import _check_state, _project_inputs, _sigmoid_inplace

__all__ = ["GRULayer", "GRUCache"]


class _GRUScratch:
    """Preallocated buffers for :meth:`GRULayer.forward_inference`.

    Mirrors ``repro.nn.lstm._LSTMScratch``: sized per (B, T) batch
    shape, reused across batches, gate activations in place on slices of
    the (B, 2H) update/reset pre-activation block.  ``Uzr``/``Ug`` hold
    contiguous copies of the packed recurrent-kernel slices, refreshed
    every call so in-place weight updates can never go stale.
    """

    __slots__ = ("B", "T", "xw", "xw_tm", "hu", "z", "r", "rh", "g", "tmp",
                 "h_prev", "out", "Uzr", "Ug")

    def __init__(self, B: int, T: int, H: int):
        self.B, self.T = B, T
        self.xw = np.empty((B * T, 3 * H))
        # Time-major staging slab for the multichannel projection;
        # allocated on first D > 1 call only (see the LSTM twin).
        self.xw_tm: np.ndarray | None = None
        self.hu = np.empty((B, 2 * H))
        self.z = self.hu[:, :H]
        self.r = self.hu[:, H:]
        self.rh = np.empty((B, H))
        self.g = np.empty((B, H))
        self.tmp = np.empty((B, H))
        self.h_prev = np.empty((B, H))
        self.out = np.empty((B, T, H))
        self.Uzr = np.empty((H, 2 * H))
        self.Ug = np.empty((H, H))


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
        if x.ndim != 3:
            raise ValueError(f"expected (batch, time, features) input, got {x.shape}")
        B, T, D = x.shape
        if D != self.input_size:
            raise ValueError(f"input feature dim {D} != layer input_size {self.input_size}")
        if T == 0:
            raise ValueError("sequence length must be positive")
        H = self.hidden_size
        _check_state("h0", h0, B, H)
        h_prev = np.zeros((B, H)) if h0 is None else np.array(h0, dtype=np.float64)

        xw = x.reshape(B * T, D) @ self.W
        xw = xw.reshape(B, T, 3 * H) + self.b

        Uz = self.U[:, :H]
        Ur = self.U[:, H : 2 * H]
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

    # ------------------------------------------------------------------
    # inference fast path
    # ------------------------------------------------------------------
    def forward_inference(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        return_sequences: bool = True,
    ) -> np.ndarray:
        """Forward pass without the BPTT cache (see the LSTM twin).

        Bitwise-identical hidden sequence to :meth:`forward`, computed
        with reusable scratch buffers, in-place gate activations, and
        hidden states written directly in (B, T, H) layout.  With
        ``return_sequences=False`` only the final (B, H) hidden state is
        returned and the per-step output writes are skipped.  The return
        value is a view of layer scratch, valid until the next call;
        not thread-safe.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (batch, time, features) input, got {x.shape}")
        B, T, D = x.shape
        if D != self.input_size:
            raise ValueError(f"input feature dim {D} != layer input_size {self.input_size}")
        if T == 0:
            raise ValueError("sequence length must be positive")
        H = self.hidden_size
        _check_state("h0", h0, B, H)

        s = self._scratch
        if s is None or s.B != B or s.T != T:
            s = self._scratch = _GRUScratch(B, T, H)
        # Refresh the contiguous recurrent-kernel copies (step GEMMs on a
        # contiguous operand; values match the strided views exactly).
        s.Uzr[...] = self.U[:, : 2 * H]
        s.Ug[...] = self.U[:, 2 * H :]

        # Time-major (T, B, 3H) projection, staged as in the LSTM twin.
        if D == 1:
            xw = s.xw.reshape(T, B, 3 * H)
        else:
            if s.xw_tm is None:
                s.xw_tm = np.empty((T, B, 3 * H))
            xw = s.xw_tm
        _project_inputs(x, self.W, self.b, xw, s.xw)

        if h0 is None:
            s.h_prev.fill(0.0)
        else:
            s.h_prev[...] = h0

        out = s.out
        H2 = 2 * H
        # Hoist per-step slice construction out of the loop (see LSTM);
        # both projection branches land in time-major layout.
        xts = list(xw)
        for t in range(T):
            xwt = xts[t]
            np.matmul(s.h_prev, s.Uzr, out=s.hu)  # z and r recurrent parts
            s.hu += xwt[:, :H2]
            _sigmoid_inplace(s.hu)  # z and r fused in one (B, 2H) block
            np.multiply(s.r, s.h_prev, out=s.rh)
            np.matmul(s.rh, s.Ug, out=s.g)
            s.g += xwt[:, H2:]
            np.tanh(s.g, out=s.g)
            # h_t = (1 - z) ⊙ h_{t-1} + z ⊙ g, computed in the contiguous
            # h_prev buffer then copied into the (B, T, H) output slab.
            np.subtract(1.0, s.z, out=s.tmp)
            np.multiply(s.tmp, s.h_prev, out=s.tmp)
            np.multiply(s.z, s.g, out=s.h_prev)
            s.h_prev += s.tmp
            if return_sequences:
                out[:, t, :] = s.h_prev
        return out if return_sequences else s.h_prev

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
