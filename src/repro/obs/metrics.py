"""In-process metrics: counters, gauges, timers, histograms.

A thread-safe :class:`MetricsRegistry` maps dotted names to metric
instances; the module-level registry (:func:`get_registry`) is what the
instrumented subsystems use, and :func:`summary` snapshots it into a
plain JSON-serializable dict for reports and benchmark artifacts.

Histograms keep a bounded reservoir of observations so percentile
queries stay O(n log n) over at most ``max_samples`` points while
count/sum/min/max remain exact over the full stream.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "reset_metrics",
    "summary",
]


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self._value}


class Gauge:
    """Last-set scalar value."""

    kind = "gauge"

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self._value}


class Histogram:
    """Streaming distribution with exact count/sum/min/max and a
    bounded reservoir for percentile estimates."""

    kind = "histogram"

    def __init__(self, max_samples: int = 4096):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = int(max_samples)
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            if len(self._samples) < self.max_samples:
                self._samples.append(v)
            else:
                # Deterministic decimation: overwrite round-robin so the
                # reservoir tracks the recent distribution without RNG.
                self._samples[self.count % self.max_samples] = v

    def observe_many(self, values: Iterable[float]) -> None:
        """:meth:`observe` each of ``values`` in order, in one locked pass.

        The total is a sequential ``np.add.accumulate``, so it rounds as
        the ``+=`` loop does, and the reservoir ends as that loop leaves
        it: appended until full, then overwritten round-robin.
        """
        vals = np.fromiter(values, dtype=np.float64)
        n = vals.size
        if not n:
            return
        with self._lock:
            count = self.count
            self.count = count + n
            with np.errstate(over="ignore", invalid="ignore"):  # as float +=
                self.total = float(np.add.accumulate(
                    np.concatenate(((self.total,), vals))
                )[-1])
            vals = vals.tolist()
            # Strict comparisons from the running bounds, as the loop's:
            # ties keep the earlier value, and NaN never replaces one.
            self.min = min(self.min, *vals)
            self.max = max(self.max, *vals)
            samples, cap = self._samples, self.max_samples
            k = min(cap - len(samples), n)
            if k > 0:
                samples.extend(vals[:k])
            rest = vals[k:]
            if rest:
                # Value j of ``rest`` lands in slot (count + k + 1 + j) % cap;
                # only the last ``cap`` of them survive their overwrites.
                skip = max(len(rest) - cap, 0)
                rest = rest[skip:]
                at = (count + k + 1 + skip) % cap
                head = min(len(rest), cap - at)
                samples[at : at + head] = rest[:head]
                samples[: len(rest) - head] = rest[head:]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100] of the reservoir."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("p must be in [0, 100]")
        with self._lock:
            data = sorted(self._samples)
        if not data:
            return math.nan
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return data[lo]
        frac = rank - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def snapshot(self) -> dict:
        with self._lock:
            empty = self.count == 0
            base = {
                "kind": self.kind,
                "count": self.count,
                "sum": self.total,
                "min": None if empty else self.min,
                "max": None if empty else self.max,
                "mean": None if empty else self.total / self.count,
                # Percentile provenance: once round-robin decimation has
                # kicked in, the reservoir reflects a recent window of
                # the stream, not its full history — consumers (the
                # Prometheus exposition, benchmark artifacts) need to
                # know which one they are quoting.
                "reservoir_size": len(self._samples),
                "reservoir_wrapped": self.count > self.max_samples,
            }
        if not empty:
            base.update(
                p50=self.percentile(50.0),
                p90=self.percentile(90.0),
                p99=self.percentile(99.0),
            )
        return base


class Timer(Histogram):
    """A histogram of durations in seconds with a context-manager API."""

    kind = "timer"

    class _Timing:
        __slots__ = ("timer", "start", "seconds")

        def __init__(self, timer: "Timer"):
            self.timer = timer
            self.start = 0.0
            self.seconds = 0.0

        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.seconds = time.perf_counter() - self.start
            self.timer.observe(self.seconds)
            return False

    def time(self) -> "Timer._Timing":
        return Timer._Timing(self)


class MetricsRegistry:
    """Thread-safe name → metric map with get-or-create accessors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = cls()
                self._metrics[name] = m
            elif not isinstance(m, cls) or type(m) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {type(m).__name__}"
                )
            return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self, prefix: str | None = None) -> dict:
        """Plain-dict snapshot of every metric, sorted by name.

        ``prefix`` restricts to one dotted namespace (e.g.
        ``"serving."``) — how subsystem reports pull their own counters
        out of the shared registry.
        """
        with self._lock:
            items = sorted(self._metrics.items())
        return {
            name: metric.snapshot()
            for name, metric in items
            if prefix is None or name.startswith(prefix)
        }

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry the instrumented subsystems use."""
    return _registry


def counter(name: str) -> Counter:
    """Get-or-create ``name`` as a counter in the global registry."""
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create ``name`` as a gauge in the global registry."""
    return _registry.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create ``name`` as a histogram in the global registry."""
    return _registry.histogram(name)


def timer(name: str) -> Timer:
    """Get-or-create ``name`` as a timer in the global registry."""
    return _registry.timer(name)


def reset_metrics() -> None:
    """Drop every metric in the global registry (tests, fresh runs)."""
    _registry.reset()


def summary(prefix: str | None = None) -> dict:
    """Machine-readable report of everything the registry has seen.

    The shape benchmarks dump to JSON: ``{"metrics": {name: snapshot}}``.
    ``prefix`` restricts to one dotted namespace (e.g. ``"serving."``).
    """
    return {"schema": 1, "metrics": _registry.snapshot(prefix)}
