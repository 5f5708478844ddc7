"""Supervised windowing of JAR series (paper Eq. 1).

``P_i = f(J_{i-1}, …, J_{i-n})``: every training sample is a length-n
sliding window paired with the value that followed it.  Windows are
built with stride tricks (zero-copy views) and only materialized where
the training loop needs contiguous batches.

A 2-D ``(N, D)`` series produces ``(n_windows, n, D)`` window tensors —
each window carries all D channels — while the paired target ``y`` is
the next value of the *target channel* only.  A 1-D series is the
one-channel case with no channels axis: ``(n_windows, n)`` windows.
Windowing a multivariate series is exactly per-channel 1-D windowing
stacked on the last axis (property-tested).
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_windows", "windows_for_range"]


def _as_series(series: np.ndarray) -> np.ndarray:
    """Coerce to float64, keeping a channels axis only when 2-D."""
    s = np.asarray(series, dtype=np.float64)
    if s.ndim == 2:
        return s
    return s.ravel()


def make_windows(
    series: np.ndarray, n: int, *, target: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """All (window → next value) pairs within ``series``.

    For a 1-D series returns ``X`` of shape (N, n) and ``y`` of shape
    (N,) where ``X[j] = series[j : j+n]`` and ``y[j] = series[j+n]``.
    For a 2-D ``(len, D)`` series ``X`` has shape (N, n, D) and
    ``y[j] = series[j+n, target]``.
    """
    s = _as_series(series)
    if n < 1:
        raise ValueError("history length n must be >= 1")
    if s.shape[0] <= n:
        raise ValueError(
            f"series of length {s.shape[0]} yields no windows of history length {n}"
        )
    return windows_for_range(s, n, n, target=target)


def windows_for_range(
    series: np.ndarray, n: int, start: int, end: int | None = None,
    *, copy: bool = True, target: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Windows whose *targets* fall in ``series[start:end]``.

    This is how the cross-validation and test sets are evaluated in the
    paper's workflow: the targets come from the held-out range, but each
    window may reach back into earlier data (the series is continuous in
    time — Fig. 7).  Targets whose window would start before index 0 are
    dropped.

    With ``copy=False`` the returned arrays are read-only-by-convention
    views aliasing ``series`` (values identical): callers that feed the
    windows straight into a value-producing transform — the inference
    path, whose scaler copies anyway — skip one materialization.

    A 2-D ``(len, D)`` series yields (n_windows, n, D) windows with
    targets drawn from channel ``target``.
    """
    s = _as_series(series)
    if n < 1:
        raise ValueError("history length n must be >= 1")
    n_steps = s.shape[0]
    end = n_steps if end is None else end
    if not 0 <= start < end <= n_steps:
        raise ValueError(f"invalid target range [{start}, {end}) for length {n_steps}")
    first = max(start, n)  # earliest target with a full window
    if first >= end:
        return np.empty((0, n) + s.shape[1:]), np.empty(0)
    # The targets form a contiguous range, so a plain slice of the
    # sliding view (one strided copy) beats a fancy-index gather.  The
    # view appends the window axis last; moving it next to the sample
    # axis gives (W, n) for a 1-D series and (W, n, D) for a 2-D one.
    X = np.moveaxis(
        np.lib.stride_tricks.sliding_window_view(s, n, axis=0)[first - n : end - n],
        -1, 1,
    )
    y = s.reshape(n_steps, -1)[first:end, target]
    if not copy:
        return X, y
    return np.ascontiguousarray(X), y.copy()
