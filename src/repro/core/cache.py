"""Cross-trial caches for the LoadDynamics search (perf layer).

Two observations make the Fig. 6 loop cheaper without changing any
result:

* every trial with the same history length ``n`` rebuilds identical
  training/validation window matrices from the same scaled series —
  :class:`WindowCache` builds them once per distinct ``n`` and hands
  out the shared (read-only by convention) arrays;
* optimizers occasionally re-suggest an already-validated config
  (integer rounding collapses nearby GP proposals onto an explored
  point) — :class:`TrialMemo` returns the recorded objective instead
  of retraining, which is exact because training is deterministic for
  a fixed seed/config/data.

Both caches are scoped to one :meth:`repro.core.LoadDynamics.fit` call;
hit/miss counts land on the ``cache.windows.*`` / ``cache.trials.*``
observability counters.
"""

from __future__ import annotations

import numpy as np

from repro.core.windowing import make_windows, windows_for_range
from repro.obs import metrics as _metrics

__all__ = ["WindowCache", "TrialMemo"]


class WindowCache:
    """Per-fit cache of supervised window matrices, keyed by ``n``.

    The split indices, scaled series, and ``max_train_windows``
    truncation are fixed for the whole search, so the windowed data set
    for a given history length is too — it is built on first use and
    reused by every later trial that shares the ``n``.
    """

    def __init__(
        self,
        scaled: np.ndarray,
        i_train_end: int,
        i_val_end: int,
        max_train_windows: int | None = None,
        target_channel: int = 0,
    ):
        s = np.asarray(scaled, dtype=np.float64)
        # A 2-D (N, D) series keeps its channels axis; anything else is
        # one channel, flattened.
        self._scaled = s if s.ndim == 2 else s.ravel()
        self._i_train_end = int(i_train_end)
        self._i_val_end = int(i_val_end)
        self._max_train_windows = max_train_windows
        self._target_channel = int(target_channel)
        self._store: dict[int, tuple] = {}

    @property
    def n_channels(self) -> int:
        return int(np.prod(self._scaled.shape[1:]))

    @property
    def target_channel(self) -> int:
        return self._target_channel

    def get(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(X_train, y_train, X_val, y_val)`` for history length ``n``.

        Arrays are shared across callers — treat them as read-only.
        """
        n = int(n)
        entry = self._store.get(n)
        if entry is not None:
            _metrics.counter("cache.windows.hits").inc()
            self._publish_hit_rate()
            return entry
        _metrics.counter("cache.windows.misses").inc()
        self._publish_hit_rate()
        X_train, y_train = make_windows(
            self._scaled[: self._i_train_end], n, target=self._target_channel
        )
        if (
            self._max_train_windows is not None
            and len(y_train) > self._max_train_windows
        ):
            X_train = X_train[-self._max_train_windows :]
            y_train = y_train[-self._max_train_windows :]
        X_val, y_val = windows_for_range(
            self._scaled, n, self._i_train_end, self._i_val_end,
            target=self._target_channel,
        )
        entry = (X_train, y_train, X_val, y_val)
        self._store[n] = entry
        return entry

    @staticmethod
    def _publish_hit_rate() -> None:
        """Keep ``cache.windows.hit_rate`` current after every lookup.

        The process-lifetime ratio of the hit/miss counters: a low value
        on a long search means the space's integer rounding is spreading
        trials across many distinct history lengths and the windowing
        cost is being paid repeatedly.
        """
        hits = _metrics.counter("cache.windows.hits").value
        misses = _metrics.counter("cache.windows.misses").value
        total = hits + misses
        if total > 0:
            _metrics.gauge("cache.windows.hit_rate").set(hits / total)

    def __len__(self) -> int:
        return len(self._store)


class TrialMemo:
    """Duplicate-config memoization of ``(objective value, metadata)``.

    Keyed by the sorted config items; models are *not* stored (the best
    model is tracked by the fit loop itself), so a memo hit returns the
    recorded value and metadata with no retraining.

    ``family`` salts the keys so distinct model families never collide
    on a shared config shape (e.g. two families that both tune only
    ``history_len``); a memo is scoped to one fit, but salting keeps
    the invariant even if one is ever reused across searches.
    """

    def __init__(self, family: str | None = None):
        self._store: dict[tuple, tuple[float, dict]] = {}
        self._family = family

    @staticmethod
    def key(config: dict) -> tuple:
        return tuple(sorted(config.items()))

    def _key(self, config: dict) -> tuple:
        base = self.key(config)
        return base if self._family is None else (self._family,) + base

    def get(self, config: dict) -> tuple[float, dict] | None:
        hit = self._store.get(self._key(config))
        if hit is None:
            _metrics.counter("cache.trials.misses").inc()
            return None
        _metrics.counter("cache.trials.hits").inc()
        value, meta = hit
        return value, dict(meta)

    def put(self, config: dict, value: float, meta: dict | None = None) -> None:
        self._store[self._key(config)] = (float(value), dict(meta or {}))

    def __contains__(self, config: dict) -> bool:
        return self._key(config) in self._store

    def __len__(self) -> int:
        return len(self._store)
