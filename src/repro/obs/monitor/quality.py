"""Online forecast-accuracy tracking in O(1) per observation.

A deployed forecaster's accuracy can only be judged *one interval at a
time*: the forecast for interval ``i`` is scored the moment ``i``'s
actual arrivals are revealed.  :class:`QualityTracker` consumes that
(prediction, actual) stream and maintains two views of every headline
accuracy metric:

* a **rolling window** (the recent operating picture drift detection and
  SLO health care about), and
* **cumulative** totals (exact over the full stream, the number a
  post-mortem wants).

Tracked per view: MAE, MAPE, sMAPE, signed bias (mean of
``prediction - actual``; positive = systematic over-forecast), and the
over-/under-provision rates (fraction of intervals whose *provisioned*
VM count — ``ceil`` of the forecast, matching
:class:`repro.autoscale.policy.PredictivePolicy` — lands above or
below the required count).

Every update is O(1): the window is a deque with running sums,
decremented on eviction.  Because subtract-on-evict accumulates float
rounding over millions of intervals, the sums are recomputed from the
window contents on a fixed cadence — amortized O(1), bit-accurate in
the long run.
"""

from __future__ import annotations

import math
from collections import deque

from repro import state as _state

__all__ = ["QualityTracker"]

#: Window sums are recomputed from scratch every this-many updates per
#: window slot, bounding subtract-on-evict float drift at amortized O(1).
_REFRESH_EVERY_WINDOWS = 64


class _Accumulator(_state.Persistent):
    """Running sums of one (err, ae, ape, sape, over, under) stream."""

    __slots__ = ("n", "err", "ae", "ape", "sape", "over", "under")
    _STATE = _state.scalars(
        n=0, err=0.0, ae=0.0, ape=0.0, sape=0.0, over=0, under=0,
    )

    def __init__(self):
        _state.reset(self)

    def add(self, rec: tuple[float, float, float, float, int, int]) -> None:
        self.n += 1
        self.err += rec[0]
        self.ae += rec[1]
        self.ape += rec[2]
        self.sape += rec[3]
        self.over += rec[4]
        self.under += rec[5]

    def snapshot(self) -> dict:
        n = self.n
        if n == 0:
            return {
                "n": 0, "mae": None, "mape": None, "smape": None,
                "bias": None, "over_rate": None, "under_rate": None,
            }
        return {
            "n": n,
            "mae": self.ae / n,
            "mape": self.ape / n,
            "smape": self.sape / n,
            "bias": self.err / n,
            "over_rate": 100.0 * self.over / n,
            "under_rate": 100.0 * self.under / n,
        }


class QualityTracker(_state.Persistent):
    """Rolling + cumulative online accuracy over a forecast stream.

    Parameters
    ----------
    window:
        Number of recent intervals in the rolling view.
    eps:
        Denominator floor for MAPE (same convention as
        :class:`~repro.core.adaptive.AdaptiveLoadDynamics`'s error
        scoring) so zero-arrival intervals do not divide by zero.
    """

    #: Persisted state (:mod:`repro.state`).  The rolling accumulator is
    #: saved *as accumulated* (raw running sums), not recomputed from the
    #: window records: the subtract-on-evict float drift it carries is
    #: part of the exact state, and a resumed stream must reproduce the
    #: uninterrupted run's outputs bit-for-bit.
    _STATE = (
        ("recent", "_recent", _state.window(
            _state.Codec(list, lambda raw, owner: tuple(raw)), "window",
        )),
        ("roll", "_roll", _state.CHILD),
        ("total", "_total", _state.CHILD),
    )

    def __init__(self, window: int = 256, eps: float = 1e-9):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.eps = float(eps)
        self._recent: deque[tuple[float, float, float, float, int, int]] = deque()
        self._roll = _Accumulator()
        self._total = _Accumulator()
        self._refresh_every = self.window * _REFRESH_EVERY_WINDOWS

    @property
    def intervals(self) -> int:
        """Total observations scored so far."""
        return self._total.n

    def update(self, predicted: float, actual: float) -> float:
        """Score one revealed interval; returns its absolute % error.

        The returned APE is the value drift detectors and SLO accuracy
        objectives consume — computing it once here keeps the per-interval
        monitoring cost a single pass.
        """
        # Hot path: accumulator updates are inlined (no .add()/.sub()
        # calls, no tuple indexing) — this runs once per served interval
        # and its cost is what bench_serving_stream.py pins as "monitor
        # overhead", so every attribute lookup here is paid millions of
        # times.
        p = float(predicted)
        a = float(actual)
        err = p - a
        ae = err if err >= 0.0 else -err
        abs_a = a if a >= 0.0 else -a
        abs_p = p if p >= 0.0 else -p
        eps = self.eps
        ape = 100.0 * ae / (abs_a if abs_a > eps else eps)
        pa = abs_p + abs_a
        sape = 200.0 * ae / (pa if pa > eps else eps)
        # Provisioning lands in whole VMs (ceil), so over/under is judged
        # on the integer counts the autoscaler would actually compare.
        prov = math.ceil(p) if p > 0.0 else 0
        need = math.ceil(a) if a > 0.0 else 0
        over = 1 if prov > need else 0
        under = 1 if prov < need else 0

        t = self._total
        t.n += 1
        t.err += err
        t.ae += ae
        t.ape += ape
        t.sape += sape
        t.over += over
        t.under += under
        r = self._roll
        r.n += 1
        r.err += err
        r.ae += ae
        r.ape += ape
        r.sape += sape
        r.over += over
        r.under += under
        recent = self._recent
        recent.append((err, ae, ape, sape, over, under))
        if len(recent) > self.window:
            old = recent.popleft()
            r.n -= 1
            r.err -= old[0]
            r.ae -= old[1]
            r.ape -= old[2]
            r.sape -= old[3]
            r.over -= old[4]
            r.under -= old[5]
        if t.n % self._refresh_every == 0:
            self._refresh_rolling()
        return ape

    def _refresh_rolling(self) -> None:
        """Recompute window sums from scratch (kills accumulated drift)."""
        fresh = _Accumulator()
        for rec in self._recent:
            fresh.add(rec)
        self._roll = fresh

    def rolling_mape(self) -> float:
        """Mean APE over the current window (NaN when empty)."""
        return self._roll.ape / self._roll.n if self._roll.n else math.nan

    def snapshot(self) -> dict:
        """Both views as a plain JSON-serializable dict."""
        win = self._roll.snapshot()
        win["size"] = self.window
        return {
            "intervals": self._total.n,
            "window": win,
            "cumulative": self._total.snapshot(),
        }
