"""Callback protocol for the training loop.

:class:`TrainingCallback` holds the per-epoch hooks fired by
:meth:`repro.nn.network.LSTMRegressor.fit` when a ``callbacks=`` list is
passed.  The search reports per trial through the ``bo.trial`` event,
not a callback.

Plain callables are accepted wherever a callback object is: a function
passed in a ``callbacks=`` list is treated as ``on_epoch_end``.
:class:`TelemetryCallback` is the stock bridge that forwards epochs into
the :mod:`repro.obs` event stream and metrics registry.
"""

from __future__ import annotations

from typing import Callable

from repro.obs import events as _events
from repro.obs import metrics as _metrics

__all__ = [
    "TrainingCallback",
    "TelemetryCallback",
    "CallbackList",
]


class TrainingCallback:
    """Base class / protocol for per-epoch training hooks."""

    def on_train_begin(self, model, n_epochs: int) -> None:
        pass

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        pass

    def on_train_end(self, history) -> None:
        pass


class _FnCallback(TrainingCallback):
    """Wraps a bare callable as an ``on_epoch_end`` hook."""

    def __init__(self, fn: Callable[[int, dict], None]):
        self._fn = fn

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        self._fn(epoch, logs)


class CallbackList:
    """Normalizes a mixed list of callbacks/callables and dispatches.

    Falsy when empty so hot loops can skip log-dict construction with a
    single truth test.
    """

    def __init__(self, callbacks=None):
        self._cbs: list[TrainingCallback] = []
        for cb in callbacks or ():
            if isinstance(cb, TrainingCallback):
                self._cbs.append(cb)
            elif callable(cb):
                self._cbs.append(_FnCallback(cb))
            else:
                raise TypeError(
                    f"callback must be a TrainingCallback or callable, got {type(cb)!r}"
                )

    def __bool__(self) -> bool:
        return bool(self._cbs)

    def __len__(self) -> int:
        return len(self._cbs)

    def on_train_begin(self, model, n_epochs: int) -> None:
        for cb in self._cbs:
            cb.on_train_begin(model, n_epochs)

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        for cb in self._cbs:
            cb.on_epoch_end(epoch, logs)

    def on_train_end(self, history) -> None:
        for cb in self._cbs:
            cb.on_train_end(history)


class TelemetryCallback(TrainingCallback):
    """Forwards every epoch into the event stream + metrics registry.

    ``prefix`` namespaces the metric/event names so concurrent trainings
    (e.g. different BO trials) can be told apart if needed.
    """

    def __init__(self, prefix: str = "train"):
        self.prefix = prefix

    def on_epoch_end(self, epoch: int, logs: dict) -> None:
        _metrics.histogram(f"{self.prefix}.epoch_loss").observe(logs["train_loss"])
        _metrics.timer(f"{self.prefix}.epoch_seconds").observe(logs["duration_s"])
        _metrics.counter(f"{self.prefix}.epochs").inc()
        if _events.enabled():
            _events.emit(f"{self.prefix}.epoch", epoch=epoch, **logs)
