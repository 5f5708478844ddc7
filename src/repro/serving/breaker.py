"""Circuit breaker shedding a misbehaving model from the serving path.

A predictor that starts throwing or emitting non-finite forecasts every
interval should not be probed on every prediction: each probe costs
latency, pollutes telemetry, and — for the adaptive variant — can mask
the drift signal.  The breaker implements the classic three-state
machine, but *call-counted* rather than wall-clock-timed so tests and
replayed simulations are exactly deterministic:

* ``closed`` — outcomes are recorded in a sliding window; when the
  window holds at least ``min_calls`` outcomes and the failure rate
  reaches ``failure_threshold``, the breaker opens;
* ``open`` — :meth:`allow` answers ``False`` for the next ``cooldown``
  calls (the model is shed; callers go straight to their fallback),
  then the breaker moves to half-open and admits a probe;
* ``half_open`` — calls are admitted as probation probes; ``probes``
  consecutive successes close the breaker, any failure re-opens it.

State transitions are recorded on the instance, counted in
``serving.breaker.transitions``, and emitted as
``serving.breaker.transition`` events.
"""

from __future__ import annotations

from repro import state as _state
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger

__all__ = ["CLOSED", "OPEN", "HALF_OPEN", "CircuitBreaker"]

logger = get_logger("serving.breaker")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


def _breaker_state(raw, owner) -> str:
    state = str(raw)
    if state not in (CLOSED, OPEN, HALF_OPEN):
        raise ValueError(f"unknown breaker state {state!r}")
    return state


def _transition(raw, owner) -> tuple[str, str, str]:
    from_state, to_state, reason = raw
    return str(from_state), str(to_state), str(reason)


class CircuitBreaker(_state.Persistent):
    """Deterministic closed/open/half-open breaker over call outcomes."""

    #: Persisted state (:mod:`repro.state`) with reset values.  The
    #: breaker's entire decision state is the window of outcomes plus
    #: the open/half-open bookkeeping — all of it must survive a
    #: checkpoint, or a resumed serving process would re-admit a model
    #: the crashed process had already shed.
    _STATE = (
        ("state", "_state", _state.Codec(str, _breaker_state), CLOSED),
        # True = failure; the window caps the deque.
        ("outcomes", "_outcomes",
         _state.window(_state.BOOL, "window", maxlen=True), []),
        # allow() refusals since opening.
        ("denied", "_denied", _state.INT, 0),
        ("probe_successes", "_probe_successes", _state.INT, 0),
        # (from_state, to_state, reason) history, oldest first.
        ("transitions", "transitions",
         _state.listed(_state.Codec(list, _transition)), []),
    )

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 20,
        min_calls: int = 5,
        cooldown: int = 10,
        probes: int = 3,
        name: str = "serving",
    ):
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_calls < 1 or min_calls > window:
            raise ValueError("min_calls must be in [1, window]")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self.failure_threshold = float(failure_threshold)
        self.window = int(window)
        self.min_calls = int(min_calls)
        self.cooldown = int(cooldown)
        self.probes = int(probes)
        self.name = str(name)
        _state.reset(self)

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the sliding window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def allow(self) -> bool:
        """May the protected call be attempted right now?

        In the open state this is where the cool-down elapses: after
        ``cooldown`` refusals the breaker moves to half-open and admits
        the call as a probe.
        """
        if self._state == OPEN:
            self._denied += 1
            if self._denied >= self.cooldown:
                self._transition(HALF_OPEN, "cooldown_elapsed")
                return True
            return False
        return True

    def record_success(self, n: int = 1) -> None:
        """Record ``n`` consecutive successful calls."""
        while n > 0 and self._state == HALF_OPEN:
            n -= 1
            self._probe_successes += 1
            if self._probe_successes >= self.probes:
                self._transition(CLOSED, "probes_passed")
        if n > 0 and self._state == CLOSED:
            self._outcomes.extend([False] * n)

    def record_failure(self) -> None:
        if self._state == HALF_OPEN:
            self._transition(OPEN, "probe_failed")
        elif self._state == CLOSED:
            self._outcomes.append(True)
            if (
                len(self._outcomes) >= self.min_calls
                and self.failure_rate >= self.failure_threshold
            ):
                self._transition(OPEN, "failure_rate")

    # ------------------------------------------------------------------
    def _transition(self, to_state: str, reason: str) -> None:
        from_state = self._state
        self._state = to_state
        self.transitions.append((from_state, to_state, reason))
        if to_state == OPEN:
            self._denied = 0
        if to_state == HALF_OPEN:
            self._probe_successes = 0
        if to_state == CLOSED:
            self._outcomes.clear()
        logger.warning(
            "breaker %s: %s -> %s (%s)", self.name, from_state, to_state, reason
        )
        _metrics.counter("serving.breaker.transitions").inc()
        if _events.enabled():
            _events.emit(
                "serving.breaker.transition",
                breaker=self.name,
                from_state=from_state,
                to_state=to_state,
                reason=reason,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(state={self._state!r}, "
            f"failure_rate={self.failure_rate:.2f}, window={self.window})"
        )
