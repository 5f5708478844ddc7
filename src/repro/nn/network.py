"""The trainable model ``A`` = stacked LSTM ``M`` + dense head ``T`` (Fig. 3).

:class:`LSTMRegressor` is the unit the LoadDynamics workflow trains in
step 1, validates in step 2, and ultimately deploys as the predictor
``f``.  It is a plain sequence-to-one regressor:

* input — a batch of history windows, shape ``(N, n, 1)`` where ``n`` is
  the history length hyperparameter;
* output — one predicted (normalized) JAR per window.

Training follows the paper's setup: MSE loss, Adam, mini-batches of the
tuned ``batch_size``, plus two standard stabilizers the paper's TF stack
applied implicitly — global-norm gradient clipping and early stopping on
a held-out split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.nn.dense import DenseLayer
from repro.nn.losses import LOSSES
from repro.nn.lstm import LSTMLayer
from repro.nn.optimizers import clip_gradients, make_optimizer
from repro.obs import events as _events
from repro.obs.callbacks import CallbackList

__all__ = ["LSTMRegressor", "TrainingHistory"]


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics returned by :meth:`LSTMRegressor.fit`."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    #: The validation windows as passed to ``fit`` and the best epoch's
    #: forecast of them, made with exactly the weights ``fit`` restores,
    #: so ``predict(val_inputs)`` afterwards returns these bits again.
    #: ``best_val_pred`` is ``None`` when no epoch improved.
    val_inputs: np.ndarray | None = field(default=None, repr=False, compare=False)
    best_val_pred: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


class LSTMRegressor:
    """Stacked-LSTM regressor with a linear output head.

    Parameters
    ----------
    hidden_size:
        Units per LSTM layer (the cell-memory size ``s``).
    num_layers:
        Number of stacked LSTM layers (1–5 in the paper's search space).
    input_size:
        Features per timestep (1 for univariate JAR series).
    seed:
        Seed for weight init and batch shuffling; fixed seed → identical
        trained model on identical data.
    """

    def __init__(
        self,
        hidden_size: int,
        num_layers: int = 1,
        input_size: int = 1,
        seed: int = 0,
        cell: str = "lstm",
    ):
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if cell not in ("lstm", "gru"):
            raise ValueError("cell must be 'lstm' or 'gru'")
        self.hidden_size = int(hidden_size)
        self.num_layers = int(num_layers)
        self.input_size = int(input_size)
        self.seed = int(seed)
        self.cell = cell
        rng = np.random.default_rng(seed)
        if cell == "gru":
            from repro.nn.gru import GRULayer

            layer_cls = GRULayer
        else:
            layer_cls = LSTMLayer
        self.lstm_layers: list = []
        d = self.input_size
        for _ in range(self.num_layers):
            self.lstm_layers.append(layer_cls(d, self.hidden_size, rng))
            d = self.hidden_size
        self.head = DenseLayer(self.hidden_size, 1, rng)
        self._shuffle_rng = np.random.default_rng(seed + 1)

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.lstm_layers:
            out.extend(layer.params)
        out.extend(self.head.params)
        return out

    def n_params(self) -> int:
        """Total trainable scalar count — the model-complexity knob the
        paper's overfitting discussion (Section III-A) is about."""
        return sum(p.size for p in self.params)

    # ------------------------------------------------------------------
    # forward / predict
    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        caches = []
        h = x
        for layer in self.lstm_layers:
            h, cache = layer.forward(h)
            caches.append(cache)
        last_h = h[:, -1, :]  # h_{i-1}: final hidden state feeds the head
        pred = self.head.forward(last_h)[:, 0]
        return pred, caches

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Cache-free forward: the deployed inference hot path.

        Each layer's ``forward_inference`` runs the same step loop as
        its ``forward`` over per-layer scratch buffers reused across
        batches instead of the BPTT stacks; outputs are bitwise-identical
        to :meth:`_forward` (enforced by the fast-path parity tests).
        The last layer runs with ``return_sequences=False`` — the head
        only reads the final hidden state, so its (B, T, H) output slab
        is never written.  Not thread-safe: every call writes the same
        layer scratch, so threads that share a model must serialize
        their ``predict`` calls with their own lock.
        """
        h = x
        for layer in self.lstm_layers[:-1]:
            h = layer.forward_inference(h)
        last_h = self.lstm_layers[-1].forward_inference(h, return_sequences=False)
        return self.head.forward(last_h)[:, 0]

    def predict(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Predict one value per window; accepts (N, n) or (N, n, 1).

        Uses the cache-free inference fast path (no training-time
        intermediates are allocated); results are bitwise-identical to
        running the cached training forward.
        """
        x = self._coerce_input(x)
        if x.shape[0] <= batch_size:
            # Hot case: one chunk, no concatenate copy.
            return self._forward_inference(x) if x.shape[0] else np.empty(0)
        outs = [
            self._forward_inference(x[a : a + batch_size])
            for a in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(outs)

    def _coerce_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, :, None]
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected (N, n) or (N, n, {self.input_size}) windows, got {x.shape}"
            )
        return x

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _backward(self, d_pred: np.ndarray, caches: list, x_shape) -> list[np.ndarray]:
        B, T, _ = x_shape
        d_last, head_grads = self.head.backward(d_pred[:, None])
        d_seq = np.zeros((B, T, self.hidden_size))
        d_seq[:, -1, :] = d_last
        grads_rev: list[np.ndarray] = []
        d = d_seq
        for layer, cache in zip(
            reversed(self.lstm_layers), reversed(caches), strict=True
        ):
            d, layer_grads = layer.backward(d, cache)
            grads_rev.extend(reversed(layer_grads))
        grads = list(reversed(grads_rev))
        grads.extend(head_grads)
        return grads

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 50,
        batch_size: int = 32,
        lr: float = 1e-3,
        optimizer: str = "adam",
        loss: str = "mse",
        clip_norm: float = 5.0,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
        patience: int = 10,
        min_delta: float = 1e-6,
        shuffle: bool = True,
        callbacks: list | None = None,
    ) -> TrainingHistory:
        """Train on windows ``x`` → targets ``y``.

        With ``validation`` given, tracks the best-epoch weights and
        restores them at the end (early stopping after ``patience``
        epochs without ``min_delta`` improvement).  That epoch's
        validation forecast is kept on the history
        (``best_val_pred``), so callers scoring the restored model on
        the same windows need not predict again.

        ``callbacks`` is a list of :class:`repro.obs.TrainingCallback`
        objects (or plain ``(epoch, logs)`` callables); each gets
        ``on_epoch_end`` exactly once per epoch run, with the same
        numbers :class:`TrainingHistory` accumulates plus the epoch
        wall-clock duration.
        """
        from repro.resilience import faults as _faults

        injector = _faults.active()
        nan_loss_epoch: int | None = None
        if injector is not None:
            fired = injector.maybe_fire("nn.fit")
            if "nan_loss" in fired:
                spec_arg = fired["nan_loss"].arg
                nan_loss_epoch = int(spec_arg) if spec_arg is not None else 0
        x = self._coerce_input(x)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{x.shape[0]} windows but {y.shape[0]} targets")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty data set")
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        batch_size = int(min(max(1, batch_size), x.shape[0]))
        loss_fn = LOSSES[loss]
        opt = make_optimizer(optimizer, lr)
        params = self.params

        val_xy = None
        if validation is not None:
            vx = self._coerce_input(validation[0])
            vy = np.asarray(validation[1], dtype=np.float64).ravel()
            if vx.shape[0] != vy.shape[0]:
                raise ValueError("validation windows/targets length mismatch")
            if vx.shape[0] > 0:
                val_xy = (vx, vy)

        history = TrainingHistory()
        if val_xy is not None:
            history.val_inputs = validation[0]
        best_val = np.inf
        best_weights: list[np.ndarray] | None = None
        stall = 0
        n = x.shape[0]

        cbs = CallbackList(callbacks)
        if cbs:
            cbs.on_train_begin(self, epochs)

        for epoch in range(epochs):
            t_epoch = time.perf_counter()
            order = self._shuffle_rng.permutation(n) if shuffle else np.arange(n)
            epoch_loss = 0.0
            epoch_norm = 0.0
            n_batches = 0
            for a in range(0, n, batch_size):
                idx = order[a : a + batch_size]
                xb, yb = x[idx], y[idx]
                pred, caches = self._forward(xb)
                value, d_pred = loss_fn(pred, yb)
                grads = self._backward(d_pred, caches, xb.shape)
                epoch_norm += clip_gradients(grads, clip_norm)
                opt.step(params, grads)
                epoch_loss += value
                n_batches += 1
            if nan_loss_epoch is not None and epoch == nan_loss_epoch:
                epoch_loss = float("nan")
            history.train_loss.append(epoch_loss / n_batches)
            history.grad_norm.append(epoch_norm / n_batches)

            improved = False
            stop = False
            if val_xy is not None:
                vp = self.predict(val_xy[0])
                vloss, _ = loss_fn(vp, val_xy[1])
                history.val_loss.append(vloss)
                if vloss < best_val - min_delta:
                    best_val = vloss
                    best_weights = [p.copy() for p in params]
                    history.best_val_pred = vp  # a fresh array, never scratch
                    history.best_epoch = epoch
                    stall = 0
                    improved = True
                else:
                    stall += 1
                    if stall >= patience:
                        history.stopped_early = True
                        stop = True

            # Telemetry is a single branch when no callbacks are passed
            # and no event sink is registered.
            if cbs or _events.enabled():
                logs = {
                    "train_loss": history.train_loss[-1],
                    "grad_norm": history.grad_norm[-1],
                    "duration_s": time.perf_counter() - t_epoch,
                    "n_batches": n_batches,
                }
                if val_xy is not None:
                    logs["val_loss"] = history.val_loss[-1]
                    logs["improved"] = improved
                if cbs:
                    cbs.on_epoch_end(epoch, logs)
                if _events.enabled():
                    _events.emit("train.epoch", epoch=epoch, **logs)
            if stop:
                break

        if best_weights is not None:
            for p, w in zip(params, best_weights, strict=True):
                p[...] = w
        if cbs:
            cbs.on_train_end(history)
        return history

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def config(self) -> dict:
        """Architecture config, sufficient to reconstruct the model shape."""
        return {
            "hidden_size": self.hidden_size,
            "num_layers": self.num_layers,
            "input_size": self.input_size,
            "seed": self.seed,
            "cell": self.cell,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LSTMRegressor(hidden_size={self.hidden_size}, "
            f"num_layers={self.num_layers}, params={self.n_params()})"
        )
