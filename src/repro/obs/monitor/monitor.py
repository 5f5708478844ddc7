"""The composed forecast monitor the serving loop feeds.

:class:`ForecastMonitor` is the single object
:func:`repro.serving.online.serve_and_simulate` accepts via its
``monitor=`` hook: one :meth:`observe` call per served interval updates
the quality trackers, every drift detector, and the SLO ledgers in one
pass — a handful of float operations, no allocation beyond the window
deques, so monitoring stays well under the serving loop's own
per-interval cost (``bench_serving_stream.py`` pins the overhead).

Division of labour:

* :class:`~repro.obs.monitor.quality.QualityTracker` scores each
  revealed interval and yields the APE the other two consume;
* the :class:`~repro.obs.monitor.drift.DriftDetector` list watches that
  error stream for sustained shifts (``drifted`` latches);
* the optional :class:`~repro.obs.monitor.slo.SLOTracker` charges
  latency/accuracy violations against their error budgets.

:meth:`report` assembles the quality/drift/SLO sections (and publishes
headline ``monitor.*`` gauges); :meth:`health` folds SLO status and the
drift latch into one :class:`~repro.obs.monitor.slo.HealthReport` — a
latched detector alone degrades an otherwise healthy verdict, because a
drifted model is failing *silently* even while budgets still hold.
"""

from __future__ import annotations

from repro import state as _state
from repro.obs import metrics as _metrics
from repro.obs.monitor.drift import CusumDetector, DriftDetector, PageHinkleyDetector
from repro.obs.monitor.quality import QualityTracker
from repro.obs.monitor.slo import DEGRADED, HEALTHY, HealthReport, SLOTracker

__all__ = ["ForecastMonitor", "default_detectors"]


def default_detectors() -> list[DriftDetector]:
    """The standard detector pair: calibrated CUSUM + Page-Hinkley."""
    return [CusumDetector(), PageHinkleyDetector()]


class ForecastMonitor(_state.Persistent):
    """Online forecast-quality monitoring for one serving stream.

    Parameters
    ----------
    quality:
        A configured :class:`QualityTracker`, or ``None`` for defaults.
    detectors:
        Drift detectors fed the per-interval APE; ``None`` installs
        :func:`default_detectors`, ``[]`` disables drift detection.
    slo:
        An :class:`SLOTracker`, or ``None`` for no SLO accounting.
    """

    #: Persisted state (:mod:`repro.state`): the interval counters, the
    #: quality tracker, every detector (position-matched to the
    #: construction-time list) and the SLO ledgers.  Restores mutate the
    #: composed objects in place, so the prebound hot-path methods stay
    #: valid.
    _STATE = (
        ("intervals", "intervals", _state.INT),
        ("published_intervals", "_published_intervals", _state.INT),
        ("quality", "quality", _state.CHILD),
        ("detectors", "detectors", _state.CHILD),
        ("slo", "slo", _state.CHILD),
    )

    def __init__(
        self,
        quality: QualityTracker | None = None,
        detectors: list[DriftDetector] | tuple[DriftDetector, ...] | None = None,
        slo: SLOTracker | None = None,
    ):
        self.quality = quality if quality is not None else QualityTracker()
        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.slo = slo
        self.intervals = 0
        # Hot-path bindings resolved once, not per observation: observe()
        # runs once per served interval, and bench_serving_stream.py pins
        # its cost against the whole serving pipeline.  The detector list
        # is therefore fixed at construction.
        self._q_update = self.quality.update
        self._detector_updates = tuple(d.update for d in self.detectors)
        self._slo_update = slo.update if slo is not None else None
        self._c_intervals = _metrics.counter("monitor.intervals")
        self._h_latency = _metrics.histogram("monitor.latency_ms")
        self._h_latency_observe = self._h_latency.observe
        # The monitor.intervals counter is synced lazily (report()) so the
        # hot path does not take the registry lock per observation.
        self._published_intervals = 0

    # ------------------------------------------------------------------
    def observe(
        self,
        predicted: float,
        actual: float,
        latency_s: float | None = None,
    ) -> float:
        """Score one served interval; returns its absolute % error."""
        self.intervals += 1
        ape = self._q_update(predicted, actual)
        for update in self._detector_updates:
            update(ape)
        if latency_s is not None:
            self._h_latency_observe(latency_s * 1e3)
        if self._slo_update is not None:
            self._slo_update(latency_s=latency_s, ape=ape)
        return ape

    # ------------------------------------------------------------------
    @property
    def drifted(self) -> bool:
        """True when any detector has latched."""
        return any(d.drifted for d in self.detectors)

    def drift_snapshots(self) -> list[dict]:
        """Per-detector state, in registration order."""
        return [d.snapshot() for d in self.detectors]

    def health(self) -> HealthReport:
        """SLO verdict, degraded further if a drift detector latched."""
        report = (
            self.slo.health() if self.slo is not None
            else HealthReport(status=HEALTHY)
        )
        if self.drifted:
            fired = ", ".join(d.name for d in self.detectors if d.drifted)
            report = report.worse_of(
                HealthReport(
                    status=DEGRADED,
                    reasons=(f"drift detected ({fired})",),
                )
            )
        return report

    def report(self) -> dict:
        """Quality/drift/SLO sections + health, publishing headline gauges."""
        if self.intervals > self._published_intervals:
            self._c_intervals.inc(self.intervals - self._published_intervals)
            self._published_intervals = self.intervals
        quality = self.quality.snapshot()
        window = quality["window"]
        if window["n"]:
            _metrics.gauge("monitor.rolling_mape").set(window["mape"])
            _metrics.gauge("monitor.rolling_bias").set(window["bias"])
        _metrics.gauge("monitor.drifted").set(1.0 if self.drifted else 0.0)
        return {
            "intervals": self.intervals,
            "quality": quality,
            "drift": self.drift_snapshots(),
            "slo": self.slo.snapshot() if self.slo is not None else None,
            "health": self.health().as_dict(),
        }
