"""Min-max normalization fit on the training split only.

LSTM gates saturate far from [0, 1]-scale inputs, so JARs (which span
1–10^7 across the paper's traces) are normalized before training.  The
scaler must be fit on the *training* split only — fitting on the full
series would leak the test range into training, inflating accuracy; the
leakage guard is part of the tested contract.

Fitting on a 2-D ``(N, D)`` series makes the scaler *per-channel*: each
channel gets its own min/max, and transforms broadcast over the last
axis (so both ``(N, D)`` series and ``(batch, n, D)`` window tensors
scale channel-wise).  A 1-D fit keeps scalar state and a scalar
serialized form, which saved univariate predictor directories carry.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MinMaxScaler"]


class MinMaxScaler:
    """Affine map of [data_min, data_max] onto [lo, hi] (default [0, 1]).

    Values outside the fitted range (the test split routinely exceeds the
    training maximum for growing workloads) are transformed by the same
    affine map — *not* clipped — so inverse_transform is always exact.
    """

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        lo, hi = feature_range
        if not lo < hi:
            raise ValueError("feature_range must be increasing")
        self.lo = float(lo)
        self.hi = float(hi)
        self.data_min_: float | np.ndarray | None = None
        self.data_max_: float | np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.data_min_ is not None

    @property
    def n_channels_(self) -> int | None:
        """Channel count of a per-channel fit; ``None`` for a scalar fit."""
        if isinstance(self.data_min_, np.ndarray):
            return int(self.data_min_.size)
        return None

    def fit(self, values: np.ndarray) -> "MinMaxScaler":
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            raise ValueError("cannot fit scaler on empty data")
        if v.ndim >= 2:
            # Per-channel fit: channels are the last axis.
            axes = tuple(range(v.ndim - 1))
            self.data_min_ = np.min(v, axis=axes).astype(np.float64)
            self.data_max_ = np.max(v, axis=axes).astype(np.float64)
        else:
            self.data_min_ = float(np.min(v))
            self.data_max_ = float(np.max(v))
        return self

    def channel(self, c: int) -> "MinMaxScaler":
        """Scalar scaler for channel ``c`` of a per-channel fit.

        A scalar-fitted scaler returns itself for channel 0 (there is
        only one channel), keeping callers channel-agnostic.
        """
        if not self.is_fitted:
            raise RuntimeError("call fit() first")
        if self.n_channels_ is None:
            if c != 0:
                raise IndexError(f"scalar scaler has no channel {c}")
            return self
        sub = MinMaxScaler(feature_range=(self.lo, self.hi))
        sub.data_min_ = float(self.data_min_[c])
        sub.data_max_ = float(self.data_max_[c])
        return sub

    def _scale(self) -> float | np.ndarray:
        span = self.data_max_ - self.data_min_
        # Constant series: map everything to the midpoint, stay invertible
        # by treating the span as 1 (transform then shifts only).
        if isinstance(span, np.ndarray):
            return (self.hi - self.lo) / np.where(span > 1e-12, span, 1.0)
        return (self.hi - self.lo) / (span if span > 1e-12 else 1.0)

    def transform(self, values: np.ndarray) -> np.ndarray:
        # lo + (v - min) * scale, with two bitwise-neutral shortcuts for
        # the inference hot path: the multiply runs in place on the
        # subtraction's output (in-place ufuncs round identically), and
        # the `lo +` pass is skipped when lo == 0.0 — (v - min) * scale
        # is never -0.0 (scale > 0; exact-equal operands subtract to
        # +0.0), so adding zero could not change a single bit.
        if not self.is_fitted:
            raise RuntimeError("call fit() first")
        v = np.asarray(values, dtype=np.float64)
        out = np.subtract(v, self.data_min_)
        out *= self._scale()
        if self.lo != 0.0:
            out += self.lo
        return out

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        # data_min + (v - lo) / scale with the same shortcuts as
        # :meth:`transform` (x - 0.0 == x for every float, and IEEE
        # addition commutes bitwise, so folding data_min in last is
        # exact).
        if not self.is_fitted:
            raise RuntimeError("call fit() first")
        v = np.asarray(values, dtype=np.float64)
        if self.lo != 0.0:
            out = np.subtract(v, self.lo)
            out /= self._scale()
        else:
            out = np.divide(v, self._scale())
        out += self.data_min_
        return out

    def state(self) -> dict:
        """Serializable state (used by predictor save/load).

        Scalar fits keep the original float-valued form; per-channel
        fits store ``data_min``/``data_max`` as lists.  ``from_state``
        accepts both, so pre-multivariate predictor directories load
        unchanged.
        """
        if isinstance(self.data_min_, np.ndarray):
            return {
                "lo": self.lo,
                "hi": self.hi,
                "data_min": self.data_min_.tolist(),
                "data_max": self.data_max_.tolist(),
            }
        return {
            "lo": self.lo,
            "hi": self.hi,
            "data_min": self.data_min_,
            "data_max": self.data_max_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "MinMaxScaler":
        s = cls(feature_range=(state["lo"], state["hi"]))
        dmin, dmax = state["data_min"], state["data_max"]
        if isinstance(dmin, (list, tuple)):
            s.data_min_ = np.asarray(dmin, dtype=np.float64)
            s.data_max_ = np.asarray(dmax, dtype=np.float64)
        else:
            s.data_min_ = dmin
            s.data_max_ = dmax
        return s
