"""Vectorized LSTM layer with full backpropagation through time.

Implements the cell of paper Fig. 4 exactly:

    i_t = sigmoid(W_i J_t + U_i h_{t-1} + b_i)
    f_t = sigmoid(W_f J_t + U_f h_{t-1} + b_f)
    o_t = sigmoid(W_o J_t + U_o h_{t-1} + b_o)
    g_t = tanh   (W_g J_t + U_g h_{t-1} + b_g)
    C_t = f_t ⊙ C_{t-1} + i_t ⊙ g_t
    h_t = o_t ⊙ tanh(C_t)

The four per-gate weight matrices are packed into single ``W`` (input),
``U`` (recurrent) and ``b`` (bias) arrays with gate layout ``[i, f, o, g]``
so each timestep costs two GEMMs instead of eight — the dominant cost, so
this is the vectorization that matters (HPC guide: optimize the
bottleneck, nothing else).  The batch dimension is fully vectorized; the
time dimension is a Python loop, which is irreducible for a recurrence.

The per-step gate buffers are gate-major: the activated sigmoid gates
are (3, B, H) and the gate gradients (4, B, H), so every elementwise op
in the step loops runs over one contiguous (B, H) block instead of a
strided column block.  The GEMM operands (``z``, ``dz_all``) keep their
row-major (B, 4H) layout: BLAS results depend on operand layout, and
every output stays bit-identical (DESIGN.md §8).

One step loop, :meth:`LSTMLayer._recur`, runs the recurrence for both
forward entries.  ``forward`` hands it the (T, B, ·) BPTT stacks as its
per-step buffers; ``forward_inference`` hands it one set of per-layer
scratch buffers, reused at every step and across calls.  So the two
entries compute the same bits by construction.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.nn.activations import clip_ufunc
from repro.nn.initializers import glorot_uniform, lstm_bias, orthogonal

__all__ = ["LSTMLayer", "LSTMCache"]

#: Element budget of one stacked ``dU`` GEMM block in
#: :meth:`LSTMLayer.backward` (8 MB of float64): long windows of wide
#: layers take the (T, H, 4H) product in blocks of steps instead of
#: materializing it whole.
_DU_BLOCK_ELEMS = 1 << 20


class _LSTMScratch:
    """Reusable buffers for :meth:`LSTMLayer.forward_inference`.

    One instance per layer, sized for a (B, T) batch shape and reused
    across batches, so inference allocates nothing per call once warm.
    ``step`` repeats one set of per-step buffers, so the step loop
    reuses them at every step where :meth:`LSTMLayer.forward` hands it
    the BPTT stacks.
    """

    __slots__ = ("B", "T", "xw", "staging", "work", "h", "c", "step", "hs",
                 "out")

    def __init__(self, B: int, T: int, D: int, H: int):
        self.B, self.T = B, T
        self.xw = np.empty((T, B, 4 * H))
        # GEMM staging of the multichannel projection (D > 1 only).
        self.staging = np.empty((B * T, 4 * H)) if D > 1 else None
        self.work = _work_buffers(B, H)
        self.h = np.empty((B, H))
        self.c = np.empty((B, H))
        sig = np.empty((3, B, H))
        # tanh(C_t) goes to the work buffer ``tmp``: the step has
        # consumed i ⊙ g from it by then.  C_t and h_t overwrite
        # C_{t-1} and h_{t-1} in place, which no later op of the step
        # reads.
        self.step = tuple(map(repeat, (sig, *sig, np.empty((B, H)), self.c,
                                       self.work[3], self.h)))
        # h_t stack for ``return_sequences``: the step GEMM reads a
        # contiguous h_{t-1}, and one transpose-copy into ``out`` after
        # the loop is cheaper than a strided copy per step.
        self.hs = np.empty((T, B, H))
        self.out = np.empty((B, T, H))


def _work_buffers(B: int, H: int) -> tuple[np.ndarray, ...]:
    """The step loop's (B, 4H) pre-activation block ``z``, its gate-major
    (3, B, H) view of the sigmoid gates [i, f, o], its strided candidate
    slice, and one (B, H) temporary."""
    z = np.empty((B, 4 * H))
    zsig = z.reshape(B, 4, H)[:, :3].transpose(1, 0, 2)
    return z, zsig, z[:, 3 * H :], np.empty((B, H))


def _sigmoid_inplace(z: np.ndarray) -> None:
    """In-place logistic sigmoid, bitwise-equal to ``activations.sigmoid``.

    Same op sequence (clip, negate, exp, 1 + ·, divide) on the same
    operands — only the destination differs, so results are identical
    to the out-of-place version to the last bit.
    """
    clip_ufunc(z, -60.0, 60.0, z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def _check_state(name: str, state, B: int, H: int) -> None:
    """Reject an initial state that is not (B, H): numpy would
    broadcast a (H,) or (1, H) state through the forward pass and only
    fail, or silently misbehave, in BPTT."""
    if state is not None and np.shape(state) != (B, H):
        raise ValueError(
            f"{name} shape {np.shape(state)} != expected (batch, hidden) {(B, H)}"
        )


def _check_input(x: np.ndarray, input_size: int) -> tuple[int, int, int]:
    """Validate a (B, T, D) recurrent-layer input and return its shape."""
    if x.ndim != 3:
        raise ValueError(f"expected (batch, time, features) input, got {x.shape}")
    B, T, D = x.shape
    if D != input_size:
        raise ValueError(f"input feature dim {D} != layer input_size {input_size}")
    if T == 0:
        raise ValueError("sequence length must be positive")
    return B, T, D


def _project_inputs(
    x: np.ndarray, W: np.ndarray, b: np.ndarray, xw: np.ndarray,
    staging: np.ndarray | None = None,
) -> None:
    """Write the hoisted input projection ``x @ W + b`` of a (B, T, D)
    batch into the time-major (T, B, G) buffer ``xw``, so every step
    slice ``xw[t]`` is contiguous.

    D == 1: ``x @ W`` with one input feature is an outer product — each
    element is the single correctly rounded product ``x[b,t,0] * W[0,j]``,
    so one broadcast multiply is bitwise-equal to the GEMM (which BLAS
    handles poorly at K=1).  D > 1: one (B*T, D) @ (D, G) GEMM into
    ``staging`` (allocated when None), so every element is the same
    dot-product reduction, then a transpose-copy, which never changes
    bits.  Shared by both forward entries of both cells.
    """
    B, T, D = x.shape
    if D == 1:
        np.multiply(x.transpose(1, 0, 2), W, out=xw)
    else:
        staging = np.matmul(np.ascontiguousarray(x).reshape(B * T, D), W,
                            out=staging)
        np.copyto(xw, staging.reshape(B, T, -1).transpose(1, 0, 2))
    xw += b


class LSTMCache:
    """Forward-pass intermediates needed by :meth:`LSTMLayer.backward`.

    Stored as time-major stacks, allocated once per forward call.  The
    sigmoid gates are gate-major, (T, 3, B, H), so each step's ``i``,
    ``f`` and ``o`` are contiguous (B, H) blocks.
    """

    __slots__ = ("x", "sig", "g", "c", "tanh_c", "h", "h0", "c0")

    def __init__(self, x, sig, g, c, tanh_c, h, h0, c0):
        self.x = x          # (B, T, D) layer input
        self.sig = sig      # (T, 3, B, H) sigmoid gate values [i, f, o]
        self.g = g          # (T, B, H) candidate tanh(·)
        self.c = c          # (T, B, H) cell states C_t
        self.tanh_c = tanh_c  # (T, B, H) tanh(C_t)
        self.h = h          # (T, B, H) hidden states h_t
        self.h0 = h0        # (B, H) initial hidden state
        self.c0 = c0        # (B, H) initial cell state


class LSTMLayer:
    """One LSTM layer mapping (B, T, D) inputs to (B, T, H) hidden states.

    Parameters
    ----------
    input_size:
        Dimensionality D of each timestep's input (1 for raw JARs).
    hidden_size:
        Number of units — the size ``s`` of the cell-memory vector ``C``,
        one of the paper's four tuned hyperparameters.
    rng:
        Source of randomness for initialization; pass a seeded generator
        for reproducible predictors.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        H = self.hidden_size
        # Input kernel: Glorot over each gate block; recurrent kernel:
        # orthogonal per gate (what Keras' LSTM default does).
        self.W = glorot_uniform(rng, input_size, H, (input_size, 4 * H))
        self.U = np.concatenate(
            [orthogonal(rng, H, H) for _ in range(4)], axis=1
        )
        self.b = lstm_bias(H)
        self._scratch: _LSTMScratch | None = None

    # Scratch buffers are a per-process cache, not state: drop them when
    # the layer is pickled (e.g. shipped to a trial-evaluation worker).
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_scratch"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._scratch = state.get("_scratch")

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        """Parameter arrays in a stable order (W, U, b)."""
        return [self.W, self.U, self.b]

    def n_params(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.params)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, LSTMCache]:
        """Run the recurrence over a (B, T, D) batch.

        Returns the full hidden-state sequence (B, T, H) plus the cache
        for BPTT.  Initial states default to zeros (the stateless mode
        used for windowed JAR prediction).  The (T, B, ·) cache stacks
        are allocated once per call and are the step loop's per-step
        buffers (:meth:`_recur`).
        """
        B, T, _ = _check_input(x, self.input_size)
        H = self.hidden_size
        _check_state("h0", h0, B, H)
        _check_state("c0", c0, B, H)
        h0 = np.zeros((B, H)) if h0 is None else np.array(h0, dtype=np.float64)
        c0 = np.zeros((B, H)) if c0 is None else np.array(c0, dtype=np.float64)

        xw = np.empty((T, B, 4 * H))
        _project_inputs(x, self.W, self.b, xw)
        sig = np.empty((T, 3, B, H))
        gs, cs, tanh_cs, hs = (np.empty((T, B, H)) for _ in range(4))
        # Iterating the (T, ·) stacks yields each step's views with no
        # per-step slicing; i/f/o are contiguous (B, H) blocks of sig[t].
        bufs = (sig, sig[:, 0], sig[:, 1], sig[:, 2], gs, cs, tanh_cs, hs)
        self._recur(xw, h0, c0, _work_buffers(B, H), bufs)
        cache = LSTMCache(x, sig, gs, cs, tanh_cs, hs, h0, c0)
        return np.ascontiguousarray(hs.transpose(1, 0, 2)), cache

    def forward_inference(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
        return_sequences: bool = True,
    ) -> np.ndarray:
        """Forward pass without the BPTT cache — the deployed hot path.

        Bitwise-identical to :meth:`forward`'s hidden sequence: the same
        step loop runs, over one set of step buffers reused at every
        step instead of the (T, B, ·) stacks; only h_t goes to a
        (T, B, H) stack, transpose-copied into the (B, T, H) output.
        The buffers are per-layer scratch reused across batches of the
        same (B, T) shape, so a warm predictor allocates nothing.

        With ``return_sequences=False`` only the final hidden state
        ``h_T`` of shape (B, H) is returned and h_t overwrites h_{t-1}
        in place — the right mode for the last layer of a stack, whose
        head reads ``h_T`` alone.

        The returned array is a view of the layer's scratch: valid until
        the next ``forward_inference`` call on this layer.  Not
        thread-safe — callers that share a model across threads must
        hold their own lock (the training path is unaffected).
        """
        B, T, D = _check_input(x, self.input_size)
        H = self.hidden_size
        _check_state("h0", h0, B, H)
        _check_state("c0", c0, B, H)
        s = self._scratch
        if s is None or s.B != B or s.T != T:
            s = self._scratch = _LSTMScratch(B, T, D, H)
        _project_inputs(x, self.W, self.b, s.xw, s.staging)
        s.h[...] = 0.0 if h0 is None else h0
        s.c[...] = 0.0 if c0 is None else c0
        if not return_sequences:
            self._recur(s.xw, s.h, s.c, s.work, s.step)
            return s.h
        self._recur(s.xw, s.h, s.c, s.work, (*s.step[:-1], s.hs))
        s.out[...] = s.hs.transpose(1, 0, 2)
        return s.out

    def _recur(self, xw, h, c, work, bufs) -> None:
        """The one step loop both forward entries run.

        ``xw`` is the time-major (T, B, 4H) input projection, ``h`` and
        ``c`` the initial states, ``work`` the :func:`_work_buffers`.
        ``bufs`` holds eight iterables that yield each step's ``sig, i,
        f, o, g, c, tanh_c, h`` output buffers: the stacks' step views,
        or one set repeated at every step.

        Two layout rules hold every output bit (DESIGN.md §8): each GEMM
        reads the same operand layout in both entries (``h`` is always a
        contiguous (B, H) block), and each transcendental keeps its
        operand's contiguity.
        """
        # Hot loop: ufuncs hoisted to locals and ``out`` passed
        # positionally — at these array sizes (a few KB per step) the
        # numpy dispatch overhead is a measurable share of each step.
        mul, mm, add, clip = np.multiply, np.matmul, np.add, clip_ufunc
        neg, exp, div, tanh = np.negative, np.exp, np.divide, np.tanh
        z, zsig, zg, tmp = work
        U = self.U
        for xwt, st, i, f, o, g, c_t, tc, h_t in zip(xw, *bufs):
            # z_t = h_{t-1} U + (x_t W + b): IEEE addition commutes.
            mm(h, U, z)
            add(z, xwt, z)
            # sigmoid(v) = 1 / (1 + exp(-clip(v))) on [i, f, o] at once:
            # the clip gathers the three strided gate blocks of z into
            # the contiguous (3, B, H) ``st``.  A transcendental's operand
            # keeps its contiguity (numpy's SIMD loops need unit stride
            # and need not round like the scalar loop): exp runs
            # contiguous and tanh of the candidate reads the strided
            # slice of z.
            clip(zsig, -60.0, 60.0, st)
            neg(st, st)
            exp(st, st)
            add(st, 1.0, st)
            div(1.0, st, st)
            tanh(zg, g)
            # C_t = f ⊙ C_{t-1} + i ⊙ g;  h_t = o ⊙ tanh(C_t)
            mul(f, c, c_t)
            mul(i, g, tmp)
            add(c_t, tmp, c_t)
            tanh(c_t, tc)
            mul(o, tc, h_t)
            h, c = h_t, c_t

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(
        self, d_h_seq: np.ndarray, cache: LSTMCache
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Full BPTT given d(loss)/d(hidden sequence) of shape (B, T, H).

        Returns ``(dx, grads)`` where ``dx`` is d(loss)/d(input) with the
        input's shape and ``grads`` matches :attr:`params` order.

        The activation derivatives do not depend on the recurrence, so
        they are computed once over whole stacks before the loop; the
        loop then writes each step's pre-activation gradients into one
        reused gate-major (4, B, H) buffer, so every per-gate op runs
        over contiguous memory, and copies it into the row-major
        ``dz_all[t]`` the GEMMs read; ``dU`` is taken out of the loop as
        stacked GEMMs summed in the loop's order.  Each element keeps
        the per-gate formulation's operation order (DESIGN.md §8), so
        gradients are bit-identical.
        """
        x, sig, gs, cs, tanh_cs, hs = (
            cache.x, cache.sig, cache.g, cache.c, cache.tanh_c, cache.h
        )
        B, T, D = x.shape
        H = self.hidden_size
        if d_h_seq.shape != (B, T, H):
            raise ValueError(
                f"d_h_seq shape {d_h_seq.shape} != expected {(B, T, H)}"
            )

        # sigmoid' = y(1 - y) and tanh' = 1 - y^2, from the cached y.
        dsig = np.subtract(1.0, sig)
        dsig *= sig
        dtanh_c = np.multiply(tanh_cs, tanh_cs)
        np.subtract(1.0, dtanh_c, out=dtanh_c)
        dtanh_g = np.multiply(gs, gs)
        np.subtract(1.0, dtanh_g, out=dtanh_g)

        dW = np.zeros_like(self.W)
        dU = np.zeros_like(self.U)
        db = np.zeros_like(self.b)
        dz_all = np.empty((T, B, 4 * H))  # pre-activation grads, for batched GEMMs
        # One step's [di, df, do, dg], gate-major so every per-gate op
        # runs over a contiguous (B, H) block.
        dgate = np.empty((4, B, H))
        dzi, dzf, dzo, dzg = dgate
        dzifo = dgate[:3]
        dh = np.empty((B, H))
        dc = np.empty((B, H))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))

        mul, mm, add, copyto = np.multiply, np.matmul, np.add, np.copyto
        UT = self.U.T
        # Each step's views, in forward order; the loop walks them back.
        # ``dz_all[t]`` rides along as its (B, 4, H) gate view.
        steps = list(zip(
            d_h_seq.transpose(1, 0, 2), sig[:, 0], sig[:, 1], sig[:, 2],
            gs, [cache.c0, *cs[:-1]], tanh_cs, dsig, dtanh_c, dtanh_g,
            dz_all, dz_all.reshape(T, B, 4, H).transpose(0, 2, 1, 3),
        ))
        for (dht, i, f, o, g, c_prev, tc, dsig_t, dtc, dtg,
             dz, dz_gates) in reversed(steps):
            # Each element keeps the per-gate form's operation order:
            # float multiplication does not associate, so (dh ⊙ o) ⊙ tanh'
            # must not become dh ⊙ (o ⊙ tanh').
            add(dht, dh_next, dh)
            mul(dh, tc, dzo)                      # do = dh ⊙ tanh(C_t)
            mul(dh, o, dc)                        # dc = (dh ⊙ o) ⊙ tanh'
            mul(dc, dtc, dc)                      #      + dc_next
            add(dc, dc_next, dc)
            mul(dc, c_prev, dzf)                  # df = dc ⊙ C_{t-1}
            mul(dc, g, dzi)                       # di = dc ⊙ g
            mul(dc, i, dzg)                       # dg = dc ⊙ i
            mul(dc, f, dc_next)                   # dc_next = dc ⊙ f
            # Back through the activations: [di, df, do] ⊙ sigmoid' in
            # one pass, dg ⊙ tanh'.
            mul(dzifo, dsig_t, dzifo)
            mul(dzg, dtg, dzg)
            # Scatter into the row-major (B, 4H) dz_t: the GEMMs keep
            # their operand layout, which BLAS results depend on.
            copyto(dz_gates, dgate)
            mm(dz, UT, dh_next)

        # dU = sum_t h_{t-1}^T dz_t needs no recurrence: stacked GEMMs over
        # blocks of steps make the same per-step gemm calls on the same
        # operands and strides, and the sum runs t = T-1 ... 0 from zero,
        # as the loop's did (addition does not associate).
        hT = np.concatenate([cache.h0[None], hs[:-1]]).transpose(0, 2, 1)
        block = max(1, _DU_BLOCK_ELEMS // (4 * H * H))
        for stop in range(T, 0, -block):
            start = max(0, stop - block)
            for P_t in mm(hT[start:stop], dz_all[start:stop])[::-1]:
                add(dU, P_t, dU)

        # Batched input-side GEMMs (time loop only carries the recurrence).
        dz_flat = dz_all.transpose(1, 0, 2).reshape(B * T, 4 * H)
        dW += x.reshape(B * T, D).T @ dz_flat
        db += dz_flat.sum(axis=0)
        dx = (dz_flat @ self.W.T).reshape(B, T, D)
        return dx, [dW, dU, db]
