"""Provisioning policies: predictive (the paper's), reactive, oracle.

The paper's algorithm (Section IV-C): "At each interval, the JAR for the
next interval is predicted.  Right after the prediction, P_i VMs are
created in advance."  :class:`PredictivePolicy` serves any
:class:`~repro.baselines.base.Predictor` over the actual arrivals to
produce that schedule with no lookahead; given a
:class:`~repro.autoscale.controller.HybridController` it corrects the
forecast in closed loop (OptScaler's collaborative policy) instead of
provisioning it as is.

Two reference policies bound the comparison:

* :class:`ReactivePolicy` — provision what arrived last interval (the
  classic rule predictive auto-scaling is meant to beat);
* :class:`OraclePolicy` — provision exactly the future arrivals (the
  zero-error lower bound for turnaround and provisioning waste).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.base import Predictor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autoscale.controller import HybridController

__all__ = [
    "PredictivePolicy",
    "ReactivePolicy",
    "OraclePolicy",
]


class PredictivePolicy:
    """Provision ahead of each interval from a predictor's forecast.

    Without a ``controller`` the policy provisions ``ceil(P_i)``; a
    non-finite forecast gets the persistence rescue (the last observed
    arrival), so the autoscaler never acts on one.  With a
    :class:`~repro.autoscale.controller.HybridController` the controller
    decides from the forecast (correction, rails, burst, reactive tier)
    over the *observed* stream, which may hold NaN outage windows, and a
    guarded predictor's circuit breaker is wired into it.  Each
    :meth:`schedule` call starts a fresh control loop, so schedules are
    deterministic and independent.

    The schedule comes from the direct entry of a
    :class:`~repro.serving.stream.StreamingServer`, the one serve loop.
    """

    def __init__(
        self,
        predictor: Predictor,
        controller: "HybridController | None" = None,
        refit_every: int = 1,
    ):
        self.predictor = predictor
        self.controller = controller
        self.refit_every = int(refit_every)
        kind = "predictive" if controller is None else "hybrid"
        self.name = f"{kind}[{predictor.name}]"

    def schedule(self, arrivals: np.ndarray, start: int) -> np.ndarray:
        """VM counts for ``arrivals[start:]``, each decided from the
        arrivals before it."""
        # Imported here: repro.serving imports this package at module level.
        from repro.serving.stream import StreamingServer

        server, rest = StreamingServer.for_trace(
            self.predictor, arrivals, start,
            refit_every=self.refit_every, controller=self.controller,
        )
        return server.serve(rest)


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
