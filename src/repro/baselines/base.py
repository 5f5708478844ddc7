"""Common predictor protocol and walk-forward evaluation.

The paper's problem statement (Eq. 1) makes every predictor a function of
the known history prefix: ``P_i = f(J_{i-1}, …, J_{i-n})``.  We model
that directly:

* :meth:`Predictor.fit` — (re)build internal state from a history prefix;
  expensive models (ARIMA, forests) implement it, cheap ones may not.
* :meth:`Predictor.predict_next` — return ``P_i`` given the prefix; must
  be side-effect free so councils can probe members cheaply.

:func:`walk_forward` replays the test portion of a trace interval by
interval, refitting every ``refit_every`` steps — this is exactly how the
evaluation in Section IV-B scores each technique on the last 20% of a
workload configuration.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Predictor", "persistence_rescue", "split_target", "walk_forward"]


class Predictor:
    """Base class for one-step-ahead JAR predictors."""

    #: Human-readable name used in experiment tables.
    name: str = "predictor"

    #: Minimum history length ``predict_next`` needs to produce a value.
    min_history: int = 1

    def fit(self, history: np.ndarray) -> "Predictor":
        """(Re)build model state from the history prefix.  Default: no-op."""
        return self

    def predict_next(self, history: np.ndarray) -> float:
        """Predict the JAR of the next interval from the known prefix."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _fallback(self, history: np.ndarray) -> float:
        """Last-value persistence — the universal degenerate answer when a
        model cannot produce a number (too-short history, singular fit)."""
        return float(history[-1]) if len(history) else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def split_target(predictor: Predictor, series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(series, target)`` as float64: a 2-D ``(steps, D)`` series stays
    2-D and ``target`` is its ``predictor.target_channel`` column
    (default 0); anything else is flattened and is its own target.

    Raises ``ValueError`` when the target channel is not a column of a
    2-D series.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        series = series.ravel()
        return series, series
    channel = int(getattr(predictor, "target_channel", 0) or 0)
    if not 0 <= channel < series.shape[1]:
        raise ValueError(
            f"target_channel {channel} out of range "
            f"for {series.shape[1]}-channel history"
        )
    return series, series[:, channel]


def persistence_rescue(forecast: float, target_history: np.ndarray) -> float:
    """``forecast`` when finite, else the last observed target value.

    A non-finite last value (unsanitized trace) must not leak through as
    the "rescue", so that case answers 0.
    """
    if math.isfinite(forecast):
        return forecast
    last = float(target_history[-1])
    return last if math.isfinite(last) else 0.0


def walk_forward(
    predictor: Predictor,
    series: np.ndarray,
    start: int,
    end: int | None = None,
    refit_every: int = 1,
    clip_nonnegative: bool = True,
) -> np.ndarray:
    """Predict ``series[start:end]`` one step ahead, walking forward.

    For each index ``i`` the predictor sees ``series[:i]`` only — no
    lookahead.  ``refit_every=k`` calls :meth:`Predictor.fit` on every
    k-th step (CloudInsight rebuilds every 5 intervals; pure smoothing
    models can use a large value since fit is a no-op).

    Returns the predictions aligned with ``series[start:end]``.  A 2-D
    ``(steps, D)`` series walks the full multivariate history into the
    predictor; the :func:`persistence_rescue` of a non-finite forecast
    reads the predictor's target channel.
    """
    series, target = split_target(predictor, series)
    n = int(series.shape[0])
    end = n if end is None else end
    if not 0 < start <= end <= n:
        raise ValueError(f"invalid window [{start}, {end}) for series of length {n}")
    if refit_every < 1:
        raise ValueError("refit_every must be >= 1")

    preds = np.empty(end - start)
    for j, i in enumerate(range(start, end)):
        history = series[:i]
        if j % refit_every == 0:
            predictor.fit(history)
        p = persistence_rescue(predictor.predict_next(history), target[:i])
        if clip_nonnegative:
            p = max(p, 0.0)
        preds[j] = p
    return preds
