"""Provisioning policies: predictive (the paper's), reactive, oracle.

The paper's algorithm (Section IV-C): "At each interval, the JAR for the
next interval is predicted.  Right after the prediction, P_i VMs are
created in advance."  :func:`provisioning_schedule` walks any
:class:`~repro.baselines.base.Predictor` over the actual arrivals to
produce that schedule with no lookahead.

Two reference policies bound the comparison:

* :class:`ReactivePolicy` — provision what arrived last interval (the
  classic rule predictive auto-scaling is meant to beat);
* :class:`OraclePolicy` — provision exactly the future arrivals (the
  zero-error lower bound for turnaround and provisioning waste).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Predictor

__all__ = [
    "PredictivePolicy",
    "ReactivePolicy",
    "OraclePolicy",
    "provisioning_schedule",
]


def provisioning_schedule(
    predictor: Predictor,
    arrivals: np.ndarray,
    start: int,
    refit_every: int = 1,
) -> np.ndarray:
    """Predicted VM counts for intervals ``start..end`` of ``arrivals``.

    Each prediction uses only arrivals before the target interval
    (walk-forward); results are rounded up to whole VMs.  A non-finite
    forecast is replaced by the last observed arrival (the persistence
    rescue), so the autoscaler never acts on one, whatever predictor
    produced it.  The schedule comes from the direct entry of a
    :class:`~repro.serving.stream.StreamingServer`.
    """
    # Imported here: repro.serving imports this package at module level.
    from repro.serving.stream import StreamingServer

    server, rest = StreamingServer.for_trace(
        predictor, arrivals, start, refit_every=refit_every
    )
    return server.serve(rest)


class PredictivePolicy:
    """Provision ceil(P_i) VMs ahead of each interval using a predictor."""

    def __init__(self, predictor: Predictor, refit_every: int = 1):
        self.predictor = predictor
        self.refit_every = int(refit_every)
        self.name = f"predictive[{predictor.name}]"

    def schedule(self, arrivals: np.ndarray, start: int) -> np.ndarray:
        return provisioning_schedule(
            self.predictor, arrivals, start, refit_every=self.refit_every
        )


class ReactivePolicy:
    """Provision from recent observed arrivals (generalized persistence).

    The classic rule — provision what arrived last interval — is the
    ``window=1, headroom=1.0`` default.  Generalized, the policy
    provisions ``headroom x max`` of the last ``window`` *finite*
    observations, which is the reactive tier the
    :class:`~repro.autoscale.controller.HybridController` degrades to: a
    wider window rides out single-interval dips, a headroom factor > 1
    buys margin against the one-interval reaction lag.  Non-finite
    observations (sensor outages, corrupted traces) are ignored inside
    the window; an all-non-finite window provisions 0 VMs (there is
    nothing to react to).
    """

    def __init__(self, window: int = 1, headroom: float = 1.0):
        if window < 1:
            raise ValueError("window must be >= 1")
        if headroom <= 0:
            raise ValueError("headroom must be positive")
        self.window = int(window)
        self.headroom = float(headroom)
        self.name = (
            "reactive"
            if window == 1 and headroom == 1.0
            else f"reactive[k={window},h={headroom:g}]"
        )

    def schedule(self, arrivals: np.ndarray, start: int) -> np.ndarray:
        a = np.asarray(arrivals, dtype=np.float64)
        if not 0 < start <= a.size:
            raise ValueError("start must be inside the arrivals series")
        if self.window == 1 and self.headroom == 1.0 and np.all(np.isfinite(a)):
            # Degenerate default on clean data: the original persistence
            # rule, bit-for-bit.
            return np.ceil(a[start - 1 : a.size - 1])
        out = np.empty(a.size - start)
        for j, i in enumerate(range(start, a.size)):
            tail = a[max(i - self.window, 0) : i]
            finite = tail[np.isfinite(tail)]
            peak = float(finite.max()) if finite.size else 0.0
            if self.headroom != 1.0:
                peak *= self.headroom
            out[j] = np.ceil(max(peak, 0.0))
        return out


class OraclePolicy:
    """Provision exactly the arrivals (perfect prediction bound)."""

    name = "oracle"

    def schedule(self, arrivals: np.ndarray, start: int) -> np.ndarray:
        a = np.asarray(arrivals, dtype=np.float64)
        if not 0 <= start < a.size:
            raise ValueError("start must be inside the arrivals series")
        return np.ceil(a[start:])
