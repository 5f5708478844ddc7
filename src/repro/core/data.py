"""Data-preparation stage of the LoadDynamics workflow (split/scale/window).

First stage of the Fig. 6 pipeline, shared by every model family and by
the brute-force baseline: split the JAR series 60/20/20, fit the min-max
scaler on the *training split only* (leakage guard), and attach a
:class:`~repro.core.cache.WindowCache` so every trial that shares a
history length reuses the same window matrices.

A 2-D ``(N, D)`` series flows through the same three steps: the split
indices count time steps (rows), the scaler fits per-channel on the
training rows only (same leakage guard), and the window cache hands out
``(n_windows, n, D)`` tensors targeting ``target_channel``.  A 1-D
series is the one-channel case and its own target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import WindowCache
from repro.core.config import FrameworkSettings
from repro.core.scaling import MinMaxScaler

__all__ = ["PreparedData", "prepare_data"]


@dataclass
class PreparedData:
    """Split, scaled, and window-cached view of one JAR series."""

    raw: np.ndarray
    scaled: np.ndarray
    scaler: MinMaxScaler
    i_train_end: int
    i_val_end: int
    window_cache: WindowCache | None = None
    n_channels: int = 1
    target_channel: int = 0

    @property
    def n_intervals(self) -> int:
        return int(self.raw.shape[0])


def prepare_data(
    series: np.ndarray,
    settings: FrameworkSettings,
    *,
    window_cache: bool = True,
    target_channel: int = 0,
) -> PreparedData:
    """Split + scale + window a series per the framework settings.

    Raises ``ValueError`` when the series is too short for the
    configured train/val fractions.  ``window_cache=False`` skips
    building the cross-trial cache (single-evaluation callers).
    ``target_channel`` selects the predicted channel of a 2-D series;
    a 1-D series is its own target, so it takes only 0.
    """
    s = np.asarray(series, dtype=np.float64)
    if s.ndim != 2:
        if target_channel != 0:
            raise ValueError("target_channel must be 0 for a 1-D trace")
        s = s.ravel()
    n_total, n_channels = s.shape[0], int(np.prod(s.shape[1:]))
    if not 0 <= target_channel < n_channels:
        raise ValueError(
            f"target_channel {target_channel} out of range for "
            f"{n_channels}-channel series"
        )
    cfg = settings
    i_train_end = int(round(cfg.train_frac * n_total))
    i_val_end = int(round((cfg.train_frac + cfg.val_frac) * n_total))
    if i_train_end < 4 or i_val_end - i_train_end < 2:
        raise ValueError(
            f"series of length {n_total} too short for the "
            f"{cfg.train_frac:.0%}/{cfg.val_frac:.0%} split"
        )

    # Scaler fit on the training split ONLY (leakage guard); per-channel
    # for a 2-D series.
    scaler = MinMaxScaler().fit(s[:i_train_end])
    scaled = scaler.transform(s)
    cache = (
        WindowCache(
            scaled, i_train_end, i_val_end, cfg.max_train_windows,
            target_channel=target_channel,
        )
        if window_cache
        else None
    )
    return PreparedData(
        raw=s,
        scaled=scaled,
        scaler=scaler,
        i_train_end=i_train_end,
        i_val_end=i_val_end,
        window_cache=cache,
        n_channels=n_channels,
        target_channel=target_channel,
    )
